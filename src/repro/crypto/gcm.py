"""Galois/Counter Mode (NIST SP 800-38D) over AES-128.

GHASH is asked for a batch at a time (:meth:`Ghash.digests`): one
``(aad, ciphertext)`` pair per record, and each record's blocks choose
between two tiers (:data:`_LANE_MIN_BLOCKS`,
:func:`~repro.crypto.lanes.tiered`).  Both are table-driven:

- :meth:`Ghash._fold` folds one 16-byte block at a time with
  :meth:`Ghash._mul_h`, 16 list lookups into per-byte-position tables of
  GF(2^128) products of H (short records, installs without numpy);
- :meth:`Ghash._digests_lanes` cuts every long record of the batch into
  :data:`_LANES` interleaved Horner chains over the byte tables of H^64,
  one numpy gather and XOR-reduce per row of all the batch's chains,
  and joins each record's chains with a tree fold over the tables of
  H^32 ... H.

No table is built up front: half the ``Ghash`` objects of a connection
belong to keys that never hash a byte, and the handshake-traffic keys
hash too few blocks to repay one, so a key multiplies per bit until it
has done :data:`_TABLE_MIN_MULTS` multiplications, and builds its numpy
power tables when the first lane-sized record arrives.  The per-bit loop
(:func:`_gf_mult`) and :meth:`Ghash.digest_reference` are retained as
the cross-validation oracle (tests/crypto/test_fastpath_equivalence.py).

CTR keystream generation is batched across records through
:meth:`~repro.crypto.aes.Aes128.ctr_keystreams` and the plaintext XOR is
one array (or, without numpy, one wide-integer) operation.
"""

import struct
from functools import cache, cached_property

from repro.crypto.aes import Aes128
from repro.crypto.lanes import numpy as _numpy, tiered, xor

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


def _bit_products(h):
    """``[(1 << i) * H for i in range(128)]``: multiples of H by single
    bits come from repeated multiplication by x (a shift with
    conditional reduction)."""
    mult = [0] * 128
    v = h
    for i in range(127, -1, -1):
        mult[i] = v
        v = (v >> 1) ^ _R if v & 1 else v >> 1
    return mult


def _build_ghash_tables(h):
    """16 tables of 256 entries: ``tables[k][b] = (b << 8*(15-k)) * H``.

    GF(2^128) multiplication is linear over the input bits, so the
    product ``X * H`` is the XOR of per-byte contributions.  Byte tables
    build incrementally from their lowest set bit, so construction is
    ~4k XORs, not 4k field mults.
    """
    mult = _bit_products(h)
    tables = []
    for k in range(16):       # byte position, 0 = most significant
        base = 8 * (15 - k)
        table = [0] * 256
        for b in range(1, 256):
            low = b & -b
            table[b] = table[b ^ low] ^ mult[base + low.bit_length() - 1]
        tables.append(table)
    return tables


# Measured, us: one ``_gf_mult`` 20, one table-driven ``_mul_h`` 1.1,
# one ``_build_ghash_tables`` 580.  The tables pay for themselves after
# 580 / (20 - 1.1) multiplications; the handshake-traffic keys of a
# connection hash 16 blocks or fewer and never get there.
_TABLE_MIN_MULTS = 30


# -- lane tier: every record's chains in one gather per row ---------------
#
# A record's blocks -- AAD, ciphertext, the lengths block, zero blocks in
# front (they hash to nothing) -- lie in rows of _LANES, block i on lane
# i % _LANES.  Lane j runs Y = Y * H^64 ^ block down its column, which
# leaves the digest as sum(Y[j] * H^(64 - j)).  The tree fold halves
# the lanes with the tables of H^32, H^16, ..., H (Y[j] * H^w ^ Y[j+w])
# and the last lane times H is the digest.  Every record of a pass
# shares the tables (H is the key's), so a row of the whole batch is one
# gather.  A table is 16 x 256 products of 16 bytes, viewed as two words
# only so that a XOR moves 8 bytes at a time.

# Measured on a 2-core x86-64 VM, us, min of interleaved runs.  A 16 KiB
# record (1,026 blocks), per record by records per pass: 1: 184, 2: 119,
# 4: 98, 8: 77, 16: 64, against 1,530 block by block and 229 for one
# record on 64 chains joined by 64 ``_mul_h``.  One record of n blocks,
# scalar / lanes on its own / added to a pass of fifteen 16 KiB records:
# 32: 44 / 44 / 52, 40: 56 / 45 / 38, 48: 68 / 46 / 67, 64: 87 / 45 /
# 45, 96: 130 / 52 / 19; 16 x 64 blocks 1,200 record by record, 130 in
# one pass.  A key's lane tables cost ~600 us once, as the byte tables
# of ``_mul_h`` do (580).
_LANE_MIN_BLOCKS = 48

_LANES = 64


def _blocks(record):
    """The GHASH blocks of an ``(aad, ciphertext)``: both zero-padded,
    and the lengths block."""
    aad, ciphertext = record
    return -(-len(aad) // 16) + -(-len(ciphertext) // 16) + 1


@cache
def _table_base():
    """Row offset of byte position k in a power table."""
    _np = _numpy()
    return (_np.arange(16, dtype=_np.uint16) * 256)[:, None]


def _times(table, blocks):
    """``blocks`` (a (w, 2) array of big-endian 16-byte values) times
    ``table``'s power: one gather, one XOR-reduce."""
    _np = _numpy()
    # position-major indices, so that the products reduce over the
    # leading axis: 10x cheaper than over a middle one
    products = table.take(
        blocks.view(_np.uint8).reshape(-1, 16).T + _table_base(), 0)
    return _np.bitwise_xor.reduce(products, axis=0)


class Ghash:
    """GHASH universal hash keyed by H = E_K(0^128)."""

    def __init__(self, h_key):
        self._h = int.from_bytes(h_key, "big")
        #: the byte tables of H, built once this many multiplications
        #: have gone the per-bit way
        self._tables = None
        self._mults = 0

    @cached_property
    def _power_tables(self):
        """The byte tables of H, H^2, H^4, ..., H^64 as one (7, 16 * 256,
        2) array: row ``256 * k + b`` of table i is the 16-byte product
        ``(b << 8*(15-k)) * H^(2^i)``.

        All seven are built at once from the powers' bit products, with
        eight XOR passes: entries ``[2^j, 2^(j+1))`` of every position
        are entries ``[0, 2^j)`` XOR bit j's product.  A power squares
        into the next as the XOR of its own set bits' products.
        """
        _np = _numpy()
        products, power = [], self._h
        for _ in range(_LANES.bit_length()):
            mult = _bit_products(power)
            products.append(mult)
            square = 0
            for i, product in enumerate(mult):
                if power >> i & 1:
                    square ^= product
            power = square
        bits = _np.frombuffer(
            b"".join(mult[8 * (15 - k) + j].to_bytes(16, "big")
                     for j in range(8) for mult in products
                     for k in range(16)),
            dtype=_np.uint64).reshape(8, -1)
        # byte-major while building, so that every pass is one
        # contiguous slice; position-major for the gathers
        tables = _np.zeros((256, bits.shape[1]), dtype=_np.uint64)
        for j in range(8):
            _np.bitwise_xor(tables[:1 << j], bits[j],
                            out=tables[1 << j:2 << j])
        return _np.ascontiguousarray(
            tables.view("V16").reshape(256, len(products), 16)
            .transpose(1, 2, 0)).view(_np.uint64).reshape(
                len(products), 16 * 256, 2)

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
        place of a scratch copy."""
        n = len(data)
        full = n - (n % 16)
        mul_h = self._mul_h
        for i in range(0, full, 16):
            y = mul_h(y ^ int.from_bytes(data[i:i + 16], "big"))
        if full != n:
            tail = int.from_bytes(data[full:], "big") << (8 * (16 - n + full))
            y = mul_h(y ^ tail)
        return y

    def _digest_scalar(self, aad, ciphertext):
        y = self._fold(self._fold(0, aad), ciphertext)
        lengths = struct.pack("!QQ", len(aad) * 8, len(ciphertext) * 8)
        y = self._mul_h(y ^ int.from_bytes(lengths, "big"))
        return y.to_bytes(16, "big")

    def _digests_lanes(self, records):
        """The digest of every ``(aad, ciphertext)`` of one pass."""
        _np = _numpy()
        count = len(records)
        sizes = list(map(_blocks, records))
        rows = -(-max(sizes) // _LANES)
        total = rows * _LANES
        padded = _np.zeros((count, 16 * total), dtype=_np.uint8)
        for i, ((aad, ciphertext), size) in enumerate(zip(records, sizes)):
            at = 16 * (total - size)
            padded[i, at:at + len(aad)] = _np.frombuffer(aad, dtype=_np.uint8)
            at += 16 * -(-len(aad) // 16)
            padded[i, at:at + len(ciphertext)] = _np.frombuffer(
                ciphertext, dtype=_np.uint8)
            padded[i, -16:] = _np.frombuffer(
                struct.pack("!QQ", len(aad) * 8, len(ciphertext) * 8),
                dtype=_np.uint8)
        blocks = padded.view(_np.uint64).reshape(count, rows, _LANES, 2)
        tables = self._power_tables
        lanes = blocks[:, 0].reshape(count * _LANES, 2)
        for row in range(1, rows):
            lanes = _times(tables[-1], lanes)
            lanes ^= blocks[:, row].reshape(count * _LANES, 2)
        lanes = lanes.reshape(count, _LANES, 2)
        for level in range(len(tables) - 2, -1, -1):
            width = 1 << level
            folded = _times(tables[level],
                            lanes[:, :width].reshape(count * width, 2))
            folded ^= lanes[:, width:].reshape(count * width, 2)
            lanes = folded.reshape(count, width, 2)
        out = memoryview(_times(tables[0], lanes.reshape(count, 2))
                         .tobytes())
        return [bytes(out[16 * i:16 * i + 16]) for i in range(count)]

    def digests(self, aads, ciphertexts):
        """One digest per ``(aad, ciphertext)``.

        Every record of :data:`_LANE_MIN_BLOCKS` blocks or more rides a
        lane pass with the batch's others (at most
        :data:`~repro.crypto.lanes.PASS_RECORDS` per pass) when numpy is
        importable; each shorter one is folded block by block.
        """
        return tiered(list(zip(aads, ciphertexts)), _blocks,
                      _LANE_MIN_BLOCKS, self._digests_lanes,
                      self._digest_scalar)

    def digest(self, aad, ciphertext):
        """The digest of one record: a batch of one."""
        return self.digests((aad,), (ciphertext,))[0]

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

    def mac_states(self, ciphertexts, aads):
        """S of every record of a run, in one GHASH lane pass."""
        return self._ghash.digests(aads, ciphertexts)

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
