"""eBPF instruction set subset and wire encoding.

Instructions use the kernel's 8-byte layout::

    opcode(8) | dst_reg(4) | src_reg(4) | offset(s16) | immediate(s32)

64-bit immediates (``lddw``) occupy two slots, exactly as in real eBPF,
so encoded programs are byte-compatible in structure with what a TCPLS
record would carry.
"""

import struct

# Instruction classes.
CLS_LD = 0x00
CLS_LDX = 0x01
CLS_ST = 0x02
CLS_STX = 0x03
CLS_ALU64 = 0x07
CLS_JMP = 0x05

# ALU / JMP source flag.
SRC_IMM = 0x00
SRC_REG = 0x08

# ALU operations (op << 4).
ALU_ADD = 0x00
ALU_SUB = 0x10
ALU_MUL = 0x20
ALU_DIV = 0x30
ALU_OR = 0x40
ALU_AND = 0x50
ALU_LSH = 0x60
ALU_RSH = 0x70
ALU_NEG = 0x80
ALU_MOD = 0x90
ALU_XOR = 0xA0
ALU_MOV = 0xB0
ALU_ARSH = 0xC0

# JMP operations.
JMP_JA = 0x00
JMP_JEQ = 0x10
JMP_JGT = 0x20
JMP_JGE = 0x30
JMP_JNE = 0x50
JMP_JSGT = 0x60
JMP_JSGE = 0x70
JMP_CALL = 0x80
JMP_EXIT = 0x90
JMP_JLT = 0xA0
JMP_JLE = 0xB0
JMP_JSLT = 0xC0
JMP_JSLE = 0xD0

# Size bits for memory ops.
SIZE_W = 0x00
SIZE_H = 0x08
SIZE_B = 0x10
SIZE_DW = 0x18

# Mode bits.
MODE_IMM = 0x00
MODE_MEM = 0x60

OP_LDDW = CLS_LD | SIZE_DW | MODE_IMM  # 0x18: load 64-bit immediate

SIZE_BYTES = {SIZE_B: 1, SIZE_H: 2, SIZE_W: 4, SIZE_DW: 8}

MASK64 = (1 << 64) - 1


class Instruction:
    """One decoded instruction."""

    __slots__ = ("opcode", "dst", "src", "offset", "imm")

    def __init__(self, opcode, dst=0, src=0, offset=0, imm=0):
        self.opcode = opcode
        self.dst = dst
        self.src = src
        self.offset = offset
        self.imm = imm

    @property
    def cls(self):
        return self.opcode & 0x07

    def __eq__(self, other):
        return isinstance(other, Instruction) and (
            self.opcode, self.dst, self.src, self.offset, self.imm
        ) == (other.opcode, other.dst, other.src, other.offset, other.imm)

    def __repr__(self):
        return "Instruction(op=0x%02x dst=r%d src=r%d off=%d imm=%d)" % (
            self.opcode, self.dst, self.src, self.offset, self.imm
        )


def encode_program(instructions):
    """Serialize to the 8-bytes-per-slot wire format.

    ``lddw`` encodes as two slots: the first carries the low 32 bits in
    ``imm``, the pseudo-slot carries the high 32 bits.
    """
    out = bytearray()
    for insn in instructions:
        if insn.opcode == OP_LDDW:
            low = insn.imm & 0xFFFFFFFF
            high = (insn.imm >> 32) & 0xFFFFFFFF
            out += struct.pack(
                "<BBhi", insn.opcode, (insn.src << 4) | insn.dst,
                insn.offset, _as_s32(low),
            )
            out += struct.pack("<BBhi", 0, 0, 0, _as_s32(high))
        else:
            out += struct.pack(
                "<BBhi", insn.opcode, (insn.src << 4) | insn.dst,
                insn.offset, _as_s32(insn.imm),
            )
    return bytes(out)


def decode_program(data):
    """Inverse of :func:`encode_program`."""
    if len(data) % 8:
        raise ValueError("program length not a multiple of 8")
    instructions = []
    i = 0
    while i < len(data):
        opcode, regs, offset, imm = struct.unpack_from("<BBhi", data, i)
        dst = regs & 0x0F
        src = regs >> 4
        i += 8
        if opcode == OP_LDDW:
            if i >= len(data):
                raise ValueError("truncated lddw")
            _, _, _, high = struct.unpack_from("<BBhi", data, i)
            i += 8
            imm64 = (imm & 0xFFFFFFFF) | ((high & 0xFFFFFFFF) << 32)
            instructions.append(Instruction(opcode, dst, src, offset, imm64))
        else:
            instructions.append(Instruction(opcode, dst, src, offset, imm))
    return instructions


def _as_s32(value):
    value &= 0xFFFFFFFF
    return value - (1 << 32) if value >= (1 << 31) else value
