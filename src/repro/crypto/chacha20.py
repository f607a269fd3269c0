"""ChaCha20 stream cipher (RFC 8439 section 2).

Pure-Python, word-exact against the RFC test vectors.  Used by the
CHACHA20_POLY1305_SHA256 suite; simulator-scale experiments prefer the
fast null-tag cipher (see :mod:`repro.crypto.aead`).

Keystream is asked for a batch at a time (:func:`chacha20_keystreams`):
one ``(counter, nonce, nblocks)`` request per record, and the blocks of
the whole batch choose between two tiers (:data:`_LANE_MIN_BLOCKS`):
:func:`_keystream_swar`, wide-integer arithmetic that serves short runs
(a single block included) and installs without numpy, and
:func:`_keystream_lanes`, numpy row arrays with every block of every
request as one column (numpy itself is imported when first needed, see
:mod:`repro.crypto.lanes`).  The original quarter-round implementation
is retained as
:func:`chacha20_block_reference`, the cross-validation oracle for both.
"""

import struct
from functools import cache
from itertools import accumulate

from repro.crypto.lanes import numpy as _numpy, passes, xor

MASK32 = 0xFFFFFFFF

_C0, _C1, _C2, _C3 = 0x61707865, 0x3320646E, 0x79622D32, 0x6B206574

_KEY_WORDS = struct.Struct("<8I")
_NONCE_WORDS = struct.Struct("<3I")


def _rotl32(v, c):
    return ((v << c) & MASK32) | (v >> (32 - c))


def _quarter_round(state, a, b, c, d):
    state[a] = (state[a] + state[b]) & MASK32
    state[d] = _rotl32(state[d] ^ state[a], 16)
    state[c] = (state[c] + state[d]) & MASK32
    state[b] = _rotl32(state[b] ^ state[c], 12)
    state[a] = (state[a] + state[b]) & MASK32
    state[d] = _rotl32(state[d] ^ state[a], 8)
    state[c] = (state[c] + state[d]) & MASK32
    state[b] = _rotl32(state[b] ^ state[c], 7)


def _check_sizes(key, nonce):
    if len(key) != 32:
        raise ValueError("ChaCha20 key must be 32 bytes")
    if len(nonce) != 12:
        raise ValueError("ChaCha20 nonce must be 12 bytes")


def chacha20_block_reference(key, counter, nonce):
    """One 64-byte keystream block (original quarter-round path,
    retained as the cross-validation oracle for both tiers)."""
    _check_sizes(key, nonce)
    constants = (_C0, _C1, _C2, _C3)
    state = list(constants)
    state.extend(struct.unpack("<8I", key))
    state.append(counter & MASK32)
    state.extend(struct.unpack("<3I", nonce))
    working = list(state)
    for _ in range(10):
        _quarter_round(working, 0, 4, 8, 12)
        _quarter_round(working, 1, 5, 9, 13)
        _quarter_round(working, 2, 6, 10, 14)
        _quarter_round(working, 3, 7, 11, 15)
        _quarter_round(working, 0, 5, 10, 15)
        _quarter_round(working, 1, 6, 11, 12)
        _quarter_round(working, 2, 7, 8, 13)
        _quarter_round(working, 3, 4, 9, 14)
    out = [(working[i] + state[i]) & MASK32 for i in range(16)]
    return struct.pack("<16I", *out)


# -- batched keystream: SWAR over wide integers -------------------------
#
# For a run of sequential counters the sixteen state words of every
# block evolve independently, so B blocks are computed at once by
# packing word i of all B blocks into one arbitrary-precision integer
# (64-bit lanes: a 32-bit value plus carry/garbage headroom).  Adds
# carry within a lane only, XORs are lane-local by nature, and each
# rotation re-masks its lanes, so dirty high bits never cross a lane
# boundary.  CPython big-int ops cost ~nanoseconds per 30-bit digit,
# which amortises the interpreter's per-op overhead across every block
# in the batch -- the same trick is impossible per 32-bit word.

_swar_masks = {}


def _swar_masks_for(nblocks):
    """(rep, m32, hi16, lo16, hi12, lo12, hi8, lo8, hi7, lo7)"""
    masks = _swar_masks.get(nblocks)
    if masks is None:
        if len(_swar_masks) > 256:
            _swar_masks.clear()
        rep = ((1 << (64 * nblocks)) - 1) // ((1 << 64) - 1)
        masks = [rep, MASK32 * rep]
        for c in (16, 12, 8, 7):
            masks.append((((MASK32 >> c) << c) & MASK32) * rep)
            masks.append(((1 << c) - 1) * rep)
        _swar_masks[nblocks] = masks
    return masks


def _keystream_swar(key_words, counter, nonce_words, nblocks):
    """``nblocks`` sequential keystream blocks, all lanes at once."""
    (rep, m32, hi16, lo16, hi12, lo12,
     hi8, lo8, hi7, lo7) = _swar_masks_for(nblocks)
    ctr = int.from_bytes(
        b"".join(((counter + i) & MASK32).to_bytes(8, "little")
                 for i in range(nblocks)),
        "little",
    )
    init = (
        [_C0 * rep, _C1 * rep, _C2 * rep, _C3 * rep]
        + [w * rep for w in key_words]
        + [ctr]
        + [w * rep for w in nonce_words]
    )
    (x0, x1, x2, x3, x4, x5, x6, x7,
     x8, x9, x10, x11, x12, x13, x14, x15) = init
    for _ in range(10):
        # column round
        x0 = x0 + x4
        t = x12 ^ x0
        x12 = ((t << 16) & hi16) | ((t >> 16) & lo16)
        x8 = x8 + x12
        t = x4 ^ x8
        x4 = ((t << 12) & hi12) | ((t >> 20) & lo12)
        x0 = x0 + x4
        t = x12 ^ x0
        x12 = ((t << 8) & hi8) | ((t >> 24) & lo8)
        x8 = x8 + x12
        t = x4 ^ x8
        x4 = ((t << 7) & hi7) | ((t >> 25) & lo7)

        x1 = x1 + x5
        t = x13 ^ x1
        x13 = ((t << 16) & hi16) | ((t >> 16) & lo16)
        x9 = x9 + x13
        t = x5 ^ x9
        x5 = ((t << 12) & hi12) | ((t >> 20) & lo12)
        x1 = x1 + x5
        t = x13 ^ x1
        x13 = ((t << 8) & hi8) | ((t >> 24) & lo8)
        x9 = x9 + x13
        t = x5 ^ x9
        x5 = ((t << 7) & hi7) | ((t >> 25) & lo7)

        x2 = x2 + x6
        t = x14 ^ x2
        x14 = ((t << 16) & hi16) | ((t >> 16) & lo16)
        x10 = x10 + x14
        t = x6 ^ x10
        x6 = ((t << 12) & hi12) | ((t >> 20) & lo12)
        x2 = x2 + x6
        t = x14 ^ x2
        x14 = ((t << 8) & hi8) | ((t >> 24) & lo8)
        x10 = x10 + x14
        t = x6 ^ x10
        x6 = ((t << 7) & hi7) | ((t >> 25) & lo7)

        x3 = x3 + x7
        t = x15 ^ x3
        x15 = ((t << 16) & hi16) | ((t >> 16) & lo16)
        x11 = x11 + x15
        t = x7 ^ x11
        x7 = ((t << 12) & hi12) | ((t >> 20) & lo12)
        x3 = x3 + x7
        t = x15 ^ x3
        x15 = ((t << 8) & hi8) | ((t >> 24) & lo8)
        x11 = x11 + x15
        t = x7 ^ x11
        x7 = ((t << 7) & hi7) | ((t >> 25) & lo7)

        # diagonal round
        x0 = x0 + x5
        t = x15 ^ x0
        x15 = ((t << 16) & hi16) | ((t >> 16) & lo16)
        x10 = x10 + x15
        t = x5 ^ x10
        x5 = ((t << 12) & hi12) | ((t >> 20) & lo12)
        x0 = x0 + x5
        t = x15 ^ x0
        x15 = ((t << 8) & hi8) | ((t >> 24) & lo8)
        x10 = x10 + x15
        t = x5 ^ x10
        x5 = ((t << 7) & hi7) | ((t >> 25) & lo7)

        x1 = x1 + x6
        t = x12 ^ x1
        x12 = ((t << 16) & hi16) | ((t >> 16) & lo16)
        x11 = x11 + x12
        t = x6 ^ x11
        x6 = ((t << 12) & hi12) | ((t >> 20) & lo12)
        x1 = x1 + x6
        t = x12 ^ x1
        x12 = ((t << 8) & hi8) | ((t >> 24) & lo8)
        x11 = x11 + x12
        t = x6 ^ x11
        x6 = ((t << 7) & hi7) | ((t >> 25) & lo7)

        x2 = x2 + x7
        t = x13 ^ x2
        x13 = ((t << 16) & hi16) | ((t >> 16) & lo16)
        x8 = x8 + x13
        t = x7 ^ x8
        x7 = ((t << 12) & hi12) | ((t >> 20) & lo12)
        x2 = x2 + x7
        t = x13 ^ x2
        x13 = ((t << 8) & hi8) | ((t >> 24) & lo8)
        x8 = x8 + x13
        t = x7 ^ x8
        x7 = ((t << 7) & hi7) | ((t >> 25) & lo7)

        x3 = x3 + x4
        t = x14 ^ x3
        x14 = ((t << 16) & hi16) | ((t >> 16) & lo16)
        x9 = x9 + x14
        t = x4 ^ x9
        x4 = ((t << 12) & hi12) | ((t >> 20) & lo12)
        x3 = x3 + x4
        t = x14 ^ x3
        x14 = ((t << 8) & hi8) | ((t >> 24) & lo8)
        x9 = x9 + x14
        t = x4 ^ x9
        x4 = ((t << 7) & hi7) | ((t >> 25) & lo7)

    state = (x0, x1, x2, x3, x4, x5, x6, x7,
             x8, x9, x10, x11, x12, x13, x14, x15)
    word_bytes = [
        ((x + init[i]) & m32).to_bytes(8 * nblocks, "little")
        for i, x in enumerate(state)
    ]
    # Lane b of word i sits at byte offset 8*b, already little-endian.
    return b"".join(
        b"".join(word_bytes[i][8 * b:8 * b + 4] for i in range(16))
        for b in range(nblocks)
    )


# -- lane keystream: numpy row arrays ------------------------------------
#
# The state is four (4, nblocks) arrays -- rows a (words 0-3), b (4-7),
# c (8-11), d (12-15), one column per block -- so a column round is one
# quarter-round over whole rows and a diagonal round is the same call
# after rotating rows b, c, d by one, two and three words.  A pass is
# about 470 array operations whatever the column count, so the columns
# of a pass are every block of every request in a batch: a request is
# one (counter, nonce, nblocks) run, and only its slice of the counter
# and nonce rows tells it from its neighbours.  The dtype is explicitly
# little-endian: the bytes out do not depend on the host's byte order.

# Measured, us per chacha20_encrypt call (swar / lanes): 24 blocks
# 188 / 249, 32 blocks 220 / 252, 36 blocks 244 / 249, 40 blocks
# 265 / 254, 48 blocks 306 / 254, 256 blocks 1516 / 330.  A 1,500-byte
# record (24 blocks) stays on the swar tier.  The crossover is on the
# blocks of a whole batch; re-measured with the 40 blocks spread over
# several requests (us per batch, swar / lanes): 1 x 40 206 / 206,
# 2 x 20 261 / 210, 4 x 10 359 / 218, 8 x 5 613 / 227 -- the swar tier
# pays its fixed cost per request, so where one request breaks even a
# batch already wins.
_LANE_MIN_BLOCKS = 40

_U32 = "<u4"
_ROT1, _ROT2, _ROT3 = ([1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2])


@cache
def _sigma():
    """The four constant words as a column, built when the lane tier
    first runs."""
    return _numpy().array([_C0, _C1, _C2, _C3], dtype=_U32)[:, None]


def _quarter_round_lanes(a, b, c, d):
    """In place on four row arrays; ``uint32`` adds wrap mod 2^32."""
    for x, y, z, left in ((a, b, d, 16), (c, d, b, 12),
                          (a, b, d, 8), (c, d, b, 7)):
        x += y
        z ^= x
        high = z >> (32 - left)
        z <<= left
        z |= high


def _keystream_lanes(key, requests):
    """The keystream of every ``(counter, nonce, nblocks)`` request,
    one array column per block, as one byte string per request."""
    _np = _numpy()
    bounds = [0, *accumulate(nblocks for _, _, nblocks in requests)]
    init = _np.empty((16, bounds[-1]), dtype=_U32)
    init[0:4] = _sigma()
    init[4:12] = _np.frombuffer(key, dtype=_U32)[:, None]
    for (counter, nonce, nblocks), start, end in zip(
            requests, bounds, bounds[1:]):
        init[12, start:end] = (_np.arange(nblocks, dtype=_np.uint64)
                               + (counter & MASK32)).astype(_U32)  # mod 2^32
        init[13:16, start:end] = _np.frombuffer(nonce, dtype=_U32)[:, None]
    work = init.copy()
    a, b, c, d = work[0:4], work[4:8], work[8:12], work[12:16]
    for _ in range(10):
        _quarter_round_lanes(a, b, c, d)
        b, c, d = b.take(_ROT1, 0), c.take(_ROT2, 0), d.take(_ROT3, 0)
        _quarter_round_lanes(a, b, c, d)
        b, c, d = b.take(_ROT3, 0), c.take(_ROT2, 0), d.take(_ROT1, 0)
    out = _np.concatenate((a, b, c, d))
    out += init
    # word-major state, block-major bytes
    stream = memoryview(out.T.tobytes())
    return [stream[64 * start:64 * end]
            for start, end in zip(bounds, bounds[1:])]


def chacha20_keystreams(key, requests):
    """One keystream per ``(counter, nonce, nblocks)`` request.

    The batch is the unit: when its blocks together reach the lane tier
    and numpy is importable, every request rides one lane pass (at most
    :data:`~repro.crypto.lanes.PASS_RECORDS` per pass); otherwise each
    takes the wide-integer tier on its own.
    """
    for _, nonce, _ in requests:
        _check_sizes(key, nonce)
    if (sum(nblocks for _, _, nblocks in requests) >= _LANE_MIN_BLOCKS
            and _numpy() is not None):
        return [stream for run in passes(requests)
                for stream in _keystream_lanes(key, run)]
    key_words = _KEY_WORDS.unpack(key)
    return [_keystream_swar(key_words, counter, _NONCE_WORDS.unpack(nonce),
                            nblocks)
            for counter, nonce, nblocks in requests]


def chacha20_block(key, counter, nonce):
    """One 64-byte keystream block."""
    return chacha20_keystreams(key, [(counter, nonce, 1)])[0]


def chacha20_encrypt(key, counter, nonce, plaintext):
    """Encrypt/decrypt (XOR keystream starting at block ``counter``)."""
    return xor(plaintext, chacha20_keystreams(
        key, [(counter, nonce, (len(plaintext) + 63) // 64)])[0])
