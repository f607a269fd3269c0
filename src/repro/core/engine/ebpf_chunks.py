"""The eBPF programs a peer is sending, chunk by chunk (Sec. 4.4).

``send_ebpf_program`` cuts a congestion controller's bytecode into
EBPF records; the receiving engine keeps each program's chunks here,
keyed ``(program_id, total)``, until every index below ``total`` has
arrived.  What a peer can make a session hold is capped at what the
largest program the verifier accepts needs -- its eight-byte
instructions, one chunk per instruction at most -- so a peer that
never completes its programs cannot grow the store without limit.
"""

from repro.core.errors import TcplsProtocolError


class ProgramChunks(dict):
    """``(program_id, total) -> {index: chunk}`` for the programs not
    yet complete, with the bytes and chunks held across all of them."""

    def __init__(self):
        super().__init__()
        self.held_bytes = 0
        self.held_chunks = 0

    def add(self, program_id, index, total, data):
        """Hold one chunk; returns the program's bytecode once its last
        chunk is in (and forgets the program), else ``None``.  A chunk
        past the cap forgets every program and raises
        :class:`TcplsProtocolError`."""
        from repro.ebpf.verifier import MAX_INSTRUCTIONS

        chunks = self.setdefault((program_id, total), {})
        self.held_bytes += len(data) - len(chunks.get(index, b""))
        self.held_chunks += index not in chunks
        chunks[index] = bytes(data)
        if self.held_bytes > 8 * MAX_INSTRUCTIONS \
                or self.held_chunks > MAX_INSTRUCTIONS:
            self.clear()
            self.held_bytes = self.held_chunks = 0
            raise TcplsProtocolError("eBPF chunks past the largest program")
        if len(chunks) < total:
            return None
        del self[program_id, total]
        bytecode = b"".join(chunks[i] for i in range(total))
        self.held_bytes -= len(bytecode)
        self.held_chunks -= total
        return bytecode
