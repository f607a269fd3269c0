"""AES-128 block cipher (FIPS 197), pure Python.

Only what GCM needs: key expansion, single-block encryption, and a
CTR keystream generator that takes a batch of requests at a time.  The
SubBytes/ShiftRows/MixColumns round is collapsed into four 256-entry
32-bit lookup tables (the classic "T-table" formulation) and runs in
one of two tiers: list
lookups and XORs on Python ints for :meth:`Aes128.encrypt_block` and
short :meth:`Aes128.ctr_keystreams` batches (and installs without
numpy), numpy gathers over every counter block of every request at once
for long batches (:data:`_LANE_MIN_BLOCKS`).

:meth:`Aes128.encrypt_block_reference` is the original byte-wise
implementation, retained verbatim as the cross-validation oracle; both
tiers are validated against FIPS 197 / NIST vectors and property-tested
byte-identical to it (tests/crypto/test_fastpath_equivalence.py).
"""

import struct
from functools import cache, cached_property
from itertools import accumulate

from repro.crypto.lanes import numpy as _numpy, passes

_SBOX = [
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B,
    0xFE, 0xD7, 0xAB, 0x76, 0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0,
    0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0, 0xB7, 0xFD, 0x93, 0x26,
    0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2,
    0xEB, 0x27, 0xB2, 0x75, 0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0,
    0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84, 0x53, 0xD1, 0x00, 0xED,
    0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F,
    0x50, 0x3C, 0x9F, 0xA8, 0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5,
    0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2, 0xCD, 0x0C, 0x13, 0xEC,
    0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14,
    0xDE, 0x5E, 0x0B, 0xDB, 0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C,
    0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79, 0xE7, 0xC8, 0x37, 0x6D,
    0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F,
    0x4B, 0xBD, 0x8B, 0x8A, 0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E,
    0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E, 0xE1, 0xF8, 0x98, 0x11,
    0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F,
    0xB0, 0x54, 0xBB, 0x16,
]

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def _xtime(a):
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _build_t_tables():
    """T-tables: per state byte, its 32-bit MixColumns column
    contribution after SubBytes (row 0 in the most significant byte)."""
    t0, t1, t2, t3 = [0] * 256, [0] * 256, [0] * 256, [0] * 256
    for x in range(256):
        s = _SBOX[x]
        s2 = _xtime(s)
        s3 = s2 ^ s
        t0[x] = (s2 << 24) | (s << 16) | (s << 8) | s3
        t1[x] = (s3 << 24) | (s2 << 16) | (s << 8) | s
        t2[x] = (s << 24) | (s3 << 16) | (s2 << 8) | s
        t3[x] = (s << 24) | (s << 16) | (s3 << 8) | s2
    return t0, t1, t2, t3


_T0, _T1, _T2, _T3 = _build_t_tables()

_MASK32 = 0xFFFFFFFF
_UNPACK4 = struct.Struct(">4I")
_UNPACK3 = struct.Struct(">3I")

# -- lane tier: every counter block of a batch at once ------------------
#
# The state is a (4, nblocks) array of column words, little-endian so
# that byte r of a word is the column's row r (explicit dtype: the bytes
# out do not depend on the host's byte order).  A round gathers table r
# with byte plane r of every word, rotates the gathered rows by r
# columns (ShiftRows) and XORs the four; the last round does the same
# over S-box-only tables.  11 array operations per round whatever the
# column count, so the columns of a pass are every counter block of
# every request in a batch: a request is one (prefix, counter, nblocks)
# run, told from its neighbours only by its slice of the input state.

# Measured, us per ctr_keystream call (scalar / lanes): 4 blocks
# 47 / 93, 6 blocks 71 / 94, 8 blocks 99 / 98, 10 blocks 125 / 96,
# 94 blocks (a 1,500-byte record) 1202 / 131, 1,024 blocks 13302 / 414.
# The crossover is on the blocks of a whole batch; re-measured with the
# 8 blocks spread over several requests: 1 x 8 83 / 80, 2 x 4 85 / 84,
# 4 x 2 86 / 89, and 8 x 2 177 / 104.
_LANE_MIN_BLOCKS = 8

_U32 = "<u4"
_COLUMN_ROTATIONS = ([1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2])


@cache
def _lane_rounds():
    """The gather tables of the ten rounds, built when the lane tier
    first runs."""
    _np = _numpy()
    # _T0[x] holds its four rows most significant first: as big-endian
    # bytes they are rows 0..3, which the little-endian view keeps.
    lane_t = _np.array([_T0, _T1, _T2, _T3], dtype=">u4").view(_U32)
    lane_s = _np.array([[s << (8 * r) for s in _SBOX] for r in range(4)],
                       dtype=_U32)
    return (lane_t,) * 9 + (lane_s,)


class Aes128:
    """AES-128 with a precomputed key schedule."""

    def __init__(self, key):
        if len(key) != 16:
            raise ValueError("AES-128 key must be 16 bytes")
        self._round_keys = self._expand_key(key)
        # Round keys as 44 big-endian 32-bit column words (fast path).
        self._rk = [
            int.from_bytes(bytes(rk[i:i + 4]), "big")
            for rk in self._round_keys for i in range(0, 16, 4)
        ]

    @staticmethod
    def _expand_key(key):
        words = [list(key[i:i + 4]) for i in range(0, 16, 4)]
        for i in range(4, 44):
            temp = list(words[i - 1])
            if i % 4 == 0:
                temp = temp[1:] + temp[:1]
                temp = [_SBOX[b] for b in temp]
                temp[0] ^= _RCON[i // 4 - 1]
            words.append([a ^ b for a, b in zip(words[i - 4], temp)])
        return [sum((words[4 * r + c] for c in range(4)), [])
                for r in range(11)]

    def _encrypt_words(self, s0, s1, s2, s3):
        """Ten T-table rounds over the four column words."""
        rk = self._rk
        t0, t1, t2, t3 = _T0, _T1, _T2, _T3
        s0 ^= rk[0]
        s1 ^= rk[1]
        s2 ^= rk[2]
        s3 ^= rk[3]
        k = 4
        for _ in range(9):
            u0 = (t0[s0 >> 24] ^ t1[(s1 >> 16) & 0xFF]
                  ^ t2[(s2 >> 8) & 0xFF] ^ t3[s3 & 0xFF] ^ rk[k])
            u1 = (t0[s1 >> 24] ^ t1[(s2 >> 16) & 0xFF]
                  ^ t2[(s3 >> 8) & 0xFF] ^ t3[s0 & 0xFF] ^ rk[k + 1])
            u2 = (t0[s2 >> 24] ^ t1[(s3 >> 16) & 0xFF]
                  ^ t2[(s0 >> 8) & 0xFF] ^ t3[s1 & 0xFF] ^ rk[k + 2])
            u3 = (t0[s3 >> 24] ^ t1[(s0 >> 16) & 0xFF]
                  ^ t2[(s1 >> 8) & 0xFF] ^ t3[s2 & 0xFF] ^ rk[k + 3])
            s0, s1, s2, s3 = u0, u1, u2, u3
            k += 4
        sb = _SBOX
        r0 = ((sb[s0 >> 24] << 24) | (sb[(s1 >> 16) & 0xFF] << 16)
              | (sb[(s2 >> 8) & 0xFF] << 8) | sb[s3 & 0xFF]) ^ rk[40]
        r1 = ((sb[s1 >> 24] << 24) | (sb[(s2 >> 16) & 0xFF] << 16)
              | (sb[(s3 >> 8) & 0xFF] << 8) | sb[s0 & 0xFF]) ^ rk[41]
        r2 = ((sb[s2 >> 24] << 24) | (sb[(s3 >> 16) & 0xFF] << 16)
              | (sb[(s0 >> 8) & 0xFF] << 8) | sb[s1 & 0xFF]) ^ rk[42]
        r3 = ((sb[s3 >> 24] << 24) | (sb[(s0 >> 16) & 0xFF] << 16)
              | (sb[(s1 >> 8) & 0xFF] << 8) | sb[s2 & 0xFF]) ^ rk[43]
        return r0, r1, r2, r3

    def encrypt_block(self, block):
        """Encrypt one 16-byte block (table-driven fast path)."""
        s0, s1, s2, s3 = _UNPACK4.unpack(block)
        return _UNPACK4.pack(*self._encrypt_words(s0, s1, s2, s3))

    def ctr_keystreams(self, requests):
        """One keystream per ``(prefix, counter, nblocks)`` request:
        E_K(prefix || (counter + i) mod 2^32) for i in 0..nblocks-1.

        ``prefix`` is the 12-byte nonce part of the counter block.  The
        batch is the unit: when its blocks together reach the lane tier
        and numpy is importable, every request rides one lane pass (at
        most :data:`~repro.crypto.lanes.PASS_RECORDS` per pass);
        otherwise each is encrypted block by block.
        """
        if (sum(nblocks for _, _, nblocks in requests) >= _LANE_MIN_BLOCKS
                and _numpy() is not None):
            return [stream for run in passes(requests)
                    for stream in self._ctr_keystream_lanes(run)]
        pack_into = _UNPACK4.pack_into
        encrypt = self._encrypt_words
        streams = []
        for prefix, counter, nblocks in requests:
            # only the trailing word varies: unpack the rest once
            p0, p1, p2 = _UNPACK3.unpack(prefix)
            out = bytearray(16 * nblocks)
            for i in range(nblocks):
                words = encrypt(p0, p1, p2, (counter + i) & _MASK32)
                pack_into(out, 16 * i, *words)
            streams.append(bytes(out))
        return streams

    def ctr_keystream(self, prefix, counter, nblocks):
        """The keystream of one request (see :meth:`ctr_keystreams`)."""
        return bytes(self.ctr_keystreams([(prefix, counter, nblocks)])[0])

    @cached_property
    def _lane_round_keys(self):
        """(11, 4) column words, byte r of a word = row r."""
        return _numpy().array(self._round_keys, dtype="u1").view(_U32)

    def _ctr_keystream_lanes(self, requests):
        """The same keystreams, every counter block of every request
        one array column."""
        _np = _numpy()
        round_keys = self._lane_round_keys
        bounds = [0, *accumulate(nblocks for _, _, nblocks in requests)]
        nblocks = bounds[-1]
        state = _np.empty((4, nblocks), dtype=_U32)
        for (prefix, counter, count), start, end in zip(
                requests, bounds, bounds[1:]):
            state[0:3, start:end] = _np.frombuffer(prefix, dtype=_U32)[:, None]
            state[3, start:end] = ((_np.arange(count, dtype=_np.uint64)
                                    + (counter & _MASK32))
                                   .astype(">u4").view(_U32))  # mod 2^32
        state ^= round_keys[0][:, None]
        for tables, round_key in zip(_lane_rounds(), round_keys[1:]):
            planes = state.view(_np.uint8).reshape(4, nblocks, 4)
            state = tables[0].take(planes[:, :, 0])
            for row, rotation in enumerate(_COLUMN_ROTATIONS, 1):
                state ^= tables[row].take(planes[:, :, row]).take(rotation, 0)
            state ^= round_key[:, None]
        stream = memoryview(state.T.tobytes())
        return [stream[16 * start:16 * end]
                for start, end in zip(bounds, bounds[1:])]

    # -- reference implementation (cross-validation oracle) --------------

    def encrypt_block_reference(self, block):
        """Encrypt one 16-byte block (original byte-wise path)."""
        state = [block[i] ^ self._round_keys[0][i] for i in range(16)]
        for round_index in range(1, 10):
            state = self._round(state, self._round_keys[round_index],
                                mix=True)
        state = self._round(state, self._round_keys[10], mix=False)
        return bytes(state)

    @staticmethod
    def _round(state, round_key, mix):
        # SubBytes + ShiftRows (state is column-major byte list).
        shifted = [0] * 16
        for col in range(4):
            for row in range(4):
                shifted[col * 4 + row] = _SBOX[state[((col + row) % 4) * 4 + row]]
        if mix:
            mixed = [0] * 16
            for col in range(4):
                a = shifted[col * 4:col * 4 + 4]
                mixed[col * 4 + 0] = _xtime(a[0]) ^ _xtime(a[1]) ^ a[1] ^ a[2] ^ a[3]
                mixed[col * 4 + 1] = a[0] ^ _xtime(a[1]) ^ _xtime(a[2]) ^ a[2] ^ a[3]
                mixed[col * 4 + 2] = a[0] ^ a[1] ^ _xtime(a[2]) ^ _xtime(a[3]) ^ a[3]
                mixed[col * 4 + 3] = _xtime(a[0]) ^ a[0] ^ a[1] ^ a[2] ^ _xtime(a[3])
            shifted = mixed
        return [shifted[i] ^ round_key[i] for i in range(16)]
