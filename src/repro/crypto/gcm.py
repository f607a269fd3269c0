"""Galois/Counter Mode (NIST SP 800-38D) over AES-128.

GHASH is table-driven, in one of two tiers (:data:`_LANE_MIN_BLOCKS`):
:meth:`Ghash._mul_h` folds one 16-byte block with 16 list lookups into
per-byte-position tables of GF(2^128) products of H (short inputs,
installs without numpy); :meth:`Ghash._lane_chains` runs 64 interleaved
Horner chains over the same kind of table for H^64, one numpy gather
and XOR-reduce per 64 blocks.  Neither table is built up front: half
the ``Ghash`` objects of a connection belong to keys that never hash a
byte, and the handshake-traffic keys hash too few blocks to repay a
table, so a key multiplies per bit until it has done
:data:`_TABLE_MIN_MULTS` multiplications and gets its H^64 table when
the first lane-sized input arrives.  The per-bit loop (:func:`_gf_mult`) and
:meth:`Ghash.digest_reference` are retained as the cross-validation
oracle (tests/crypto/test_fastpath_equivalence.py).

CTR keystream generation is batched across records through
:meth:`~repro.crypto.aes.Aes128.ctr_keystreams` and the plaintext XOR is
one array (or, without numpy, one wide-integer) operation.
"""

import struct
from functools import cache, cached_property

from repro.crypto.aes import Aes128
from repro.crypto.lanes import numpy as _numpy, xor

_R = 0xE1000000000000000000000000000000


def _gf_mult(x, y):
    """Carry-less multiplication in GF(2^128) with the GCM polynomial.

    Per-bit: the oracle for the tables below, and what a key that
    hashes only a few blocks uses instead of building them.
    """
    z = 0
    v = x
    for i in range(127, -1, -1):
        if (y >> i) & 1:
            z ^= v
        if v & 1:
            v = (v >> 1) ^ _R
        else:
            v >>= 1
    return z


def _build_ghash_tables(h):
    """16 tables of 256 entries: ``tables[k][b] = (b << 8*(15-k)) * H``.

    GF(2^128) multiplication is linear over the input bits, so the
    product ``X * H`` is the XOR of per-byte contributions.  Single-bit
    multiples come from repeated multiplication by x (a shift with
    conditional reduction); byte tables build incrementally from their
    lowest set bit, so construction is ~4k XORs, not 4k field mults.
    """
    mult = [0] * 128          # mult[i] = (1 << i) * H, integer bit index
    v = h
    for i in range(127, -1, -1):
        mult[i] = v
        v = (v >> 1) ^ _R if v & 1 else v >> 1
    tables = []
    for k in range(16):       # byte position, 0 = most significant
        base = 8 * (15 - k)
        table = [0] * 256
        for b in range(1, 256):
            low = b & -b
            table[b] = table[b ^ low] ^ mult[base + low.bit_length() - 1]
        tables.append(table)
    return tables


_LANES = 64

# Measured, us per digest with a 3-byte AAD (scalar / lanes): 64 blocks
# 100 / 107, 72 blocks 113 / 117, 80 blocks 125 / 118, 94 blocks (a
# 1,500-byte record) 148 / 117, 256 blocks 387 / 169, 1,024 blocks
# 1564 / 214.  The lane tier pays 64 scalar multiplications to join its
# chains, so it needs more than one block per lane to win.
_LANE_MIN_BLOCKS = 80

@cache
def _table_base():
    """Row offset of byte position k in ``Ghash._lane_table``."""
    _np = _numpy()
    return (_np.arange(16, dtype=_np.uint16) * 256)[:, None]


# Measured, us: one ``_gf_mult`` 20, one table-driven ``_mul_h`` 1.1,
# one ``_build_ghash_tables`` 580.  The tables pay for themselves after
# 580 / (20 - 1.1) multiplications; the handshake-traffic keys of a
# connection hash 16 blocks or fewer and never get there.
_TABLE_MIN_MULTS = 30


class Ghash:
    """GHASH universal hash keyed by H = E_K(0^128)."""

    def __init__(self, h_key):
        self._h = int.from_bytes(h_key, "big")
        #: the byte tables of H, built once this many multiplications
        #: have gone the per-bit way
        self._tables = None
        self._mults = 0

    @cached_property
    def _lane_table(self):
        """The byte tables of H^64 as one (16 * 256, 2) array: row
        ``256 * k + b`` is the 16-byte product for byte ``b`` at position
        ``k``, viewed as two words only so that a XOR moves 8 bytes at a
        time (XOR does not care how the words are read)."""
        power = self._h
        for _ in range(_LANES - 1):
            power = self._mul_h(power)
        _np = _numpy()
        return _np.frombuffer(
            b"".join(product.to_bytes(16, "big")
                     for table in _build_ghash_tables(power)
                     for product in table),
            dtype=_np.uint64).reshape(16 * 256, 2)

    def _mul_h(self, x):
        """``x * H``: one table lookup per input byte, or per bit while
        this key has multiplied too little to be worth its tables."""
        tables = self._tables
        if tables is None:
            self._mults += 1
            if self._mults < _TABLE_MIN_MULTS:
                return _gf_mult(x, self._h)
            tables = self._tables = _build_ghash_tables(self._h)
        y = 0
        for table, byte in zip(tables, x.to_bytes(16, "big")):
            y ^= table[byte]
        return y

    def _fold(self, y, data):
        """Absorb ``data`` block-by-block without materialising a padded
        block list; the tail is padded arithmetically (a left shift) in
        place of a scratch copy.  A long input is first reduced to its
        64 lane chains, which then fold like any 64 blocks."""
        n = len(data)
        if -(-n // 16) >= _LANE_MIN_BLOCKS and _numpy() is not None:
            y, data, n = 0, self._lane_chains(y, data), 16 * _LANES
        full = n - (n % 16)
        mul_h = self._mul_h
        for i in range(0, full, 16):
            y = mul_h(y ^ int.from_bytes(data[i:i + 16], "big"))
        if full != n:
            tail = int.from_bytes(data[full:], "big") << (8 * (16 - n + full))
            y = mul_h(y ^ tail)
        return y

    def _lane_chains(self, y, data):
        """64 blocks that fold (from 0) to what ``data`` folds to from
        ``y``, computed with block ``i`` of ``data`` on lane ``i % 64``.

        Zero blocks in front (they hash to nothing) fill the first row
        of lanes, zero bytes behind pad the tail, and ``y`` is XORed
        into the first real block.  Lane ``j`` then runs
        ``Y = Y * H^64 ^ block`` down its column, which leaves the whole
        fold as ``sum(Y[j] * H^(64 - j))``.
        """
        _np = _numpy()
        n = len(data)
        rows = -(-n // (16 * _LANES))
        lead = 16 * _LANES * rows - 16 * -(-n // 16)
        padded = _np.zeros(16 * _LANES * rows, dtype=_np.uint8)
        padded[lead:lead + n] = _np.frombuffer(data, dtype=_np.uint8)
        if y:
            padded[lead:lead + 16] ^= _np.frombuffer(
                y.to_bytes(16, "big"), dtype=_np.uint8)
        blocks = padded.view(_np.uint64).reshape(rows, _LANES, 2)
        table, table_base = self._lane_table, _table_base()
        lanes = blocks[0]
        for row in range(1, rows):
            # position-major indices, so that the products reduce over
            # the leading axis: 10x cheaper than over a middle one
            products = table.take(
                lanes.view(_np.uint8).reshape(_LANES, 16).T + table_base, 0)
            lanes = _np.bitwise_xor.reduce(products, axis=0)
            lanes ^= blocks[row]
        return lanes.tobytes()

    def digest(self, aad, ciphertext):
        y = self._fold(0, aad)
        y = self._fold(y, ciphertext)
        lengths = struct.pack("!QQ", len(aad) * 8, len(ciphertext) * 8)
        y = self._mul_h(y ^ int.from_bytes(lengths, "big"))
        return y.to_bytes(16, "big")

    def digest_reference(self, aad, ciphertext):
        """Per-bit reference GHASH (validation oracle for the tables)."""
        h = self._h
        y = 0
        for data in (aad, ciphertext):
            n = len(data)
            full = n - (n % 16)
            for i in range(0, full, 16):
                y = _gf_mult(y ^ int.from_bytes(data[i:i + 16], "big"), h)
            if full != n:
                tail = int.from_bytes(data[full:], "big") \
                    << (8 * (16 - n + full))
                y = _gf_mult(y ^ tail, h)
        lengths = struct.pack("!QQ", len(aad) * 8, len(ciphertext) * 8)
        y = _gf_mult(y ^ int.from_bytes(lengths, "big"), h)
        return y.to_bytes(16, "big")


class AesGcm:
    """The :mod:`~repro.crypto.tagtrial` primitives of AES-128-GCM with
    12-byte nonces (:class:`~repro.crypto.aead.Aes128Gcm` builds
    seal/open/verify from them).

    The tag is ``GHASH_H(aad, ciphertext) XOR E_K(J0)``: only the one
    AES block depends on the nonce, so a tag trial pays GHASH
    once per record and one block encryption per candidate nonce.
    """

    def __init__(self, key):
        self._aes = Aes128(key)
        self._ghash = Ghash(self._aes.encrypt_block(b"\x00" * 16))

    def mac_state(self, ciphertext, aad):
        """S = GHASH(aad, ciphertext): the nonce-independent tag part."""
        return self._ghash.digest(aad, ciphertext)

    def pads(self, nonces, lengths):
        """``(E_K(J0), CTR stream from counter 2)`` per record: counter
        blocks 1, 2, ... of each nonce, the whole run in one pass."""
        for nonce in nonces:
            if len(nonce) != 12:
                raise ValueError("GCM nonce must be 12 bytes")
        return [(stream[:16], stream[16:])
                for stream in self._aes.ctr_keystreams(
                    [(nonce, 1, 1 + (n + 15) // 16)
                     for nonce, n in zip(nonces, lengths)])]

    def finish_tag(self, s, nonce, pad=None):
        """S XOR E_K(J0): one AES block per nonce."""
        block, _ = pad or self.pads((nonce,), (0,))[0]
        return (int.from_bytes(s, "big")
                ^ int.from_bytes(block, "big")).to_bytes(16, "big")

    def crypt(self, nonce, data, pad=None):
        """CTR en/decryption from counter 2 (no authentication)."""
        _, stream = pad or self.pads((nonce,), (len(data),))[0]
        return xor(data, stream)
