"""Poly1305 one-time authenticator (RFC 8439 section 2.5).

A MAC is asked for a batch at a time (:func:`poly1305_macs`): one
``(key, message)`` pair per record, and each message's blocks choose
between two tiers (:data:`_LANE_MIN_BLOCKS`,
:func:`~repro.crypto.lanes.tiered`):

- :func:`_mac_scalar`, big-int arithmetic one message at a time: one
  block per ``% p`` for short messages, four blocks per ``% p`` (Horner
  over ``r^4``, the three inner blocks weighted by ``r^3, r^2, r``) for
  long ones (:data:`_FOUR_MIN_BLOCKS`).  It serves short messages and
  installs without numpy;
- :func:`_macs_lanes`, numpy arrays with every long message of the
  batch cut into :data:`_LANES` lanes (numpy itself is imported when
  first needed, see :mod:`repro.crypto.lanes`).

:func:`poly1305_mac` is the batch of one.
"""

import struct
from functools import cache

from repro.crypto.lanes import numpy as _numpy, tiered

P1305 = (1 << 130) - 5

_CLAMP = 0x0FFFFFFC0FFFFFFC0FFFFFFC0FFFFFFF

_FOUR_BLOCKS = struct.Struct("<16s16s16s16s")

# Measured, us per MAC (one block / four blocks per reduction): 4 blocks
# 2.6 / 2.9, 6 blocks 3.6 / 3.7, 8 blocks 4.3 / 3.9, 16 blocks 7.6 / 5.8,
# 96 blocks 43 / 26, 1,026 blocks (a 16 KiB record's MAC input)
# 457 / 255.  Below the crossover the three extra powers of r cost more
# than they save.
_FOUR_MIN_BLOCKS = 8


def _mac_scalar(key, message):
    """16-byte tag over ``message`` with a 32-byte one-time key.

    The per-chunk high bit is added arithmetically (``+ 2^(8*len)``)
    instead of concatenating ``b"\\x01"`` onto every 16-byte slice, so
    the loop allocates nothing beyond the chunk integers themselves.
    """
    r = int.from_bytes(key[:16], "little") & _CLAMP
    s = int.from_bytes(key[16:], "little")
    accumulator = 0
    n = len(message)
    full = n - (n % 16)
    high_bit = 1 << 128
    from_bytes = int.from_bytes
    done = 0
    if n >= 16 * _FOUR_MIN_BLOCKS:
        r2 = r * r % P1305
        r3 = r2 * r % P1305
        r4 = r3 * r % P1305
        high_bits = high_bit * (r4 + r3 + r2 + r)
        done = n - (n % 64)
        for a, b, c, d in _FOUR_BLOCKS.iter_unpack(message[:done]):
            accumulator = (
                (accumulator + from_bytes(a, "little")) * r4
                + from_bytes(b, "little") * r3
                + from_bytes(c, "little") * r2
                + from_bytes(d, "little") * r
                + high_bits
            ) % P1305
    for i in range(done, full, 16):
        accumulator = (
            accumulator + high_bit
            + from_bytes(message[i:i + 16], "little")
        ) * r % P1305
    if full != n:
        tail = message[full:]
        accumulator = (
            accumulator + (1 << (8 * len(tail)))
            + from_bytes(tail, "little")
        ) * r % P1305
    tag = (accumulator + s) & ((1 << 128) - 1)
    return tag.to_bytes(16, "little")


# -- lane tier: every record's lanes in a few array products --------------
#
# A value mod p is five 26-bit limbs in uint64 (poly1305-donna's
# representation): a product of two is 25 limb products of under 2^55,
# the ones that reach 2^130 and beyond folded back times 5, since
# 2^130 = 5 mod p.  Multiplying by a fixed v is therefore a 5 x 5 matrix
# of v's limbs, and a sum of products is one matrix product.
#
# A record's blocks, zero-padded at the front (a zero block leaves a
# Poly1305 accumulator at zero), are cut into k lanes of R consecutive
# blocks (k = _LANES, or the power of two that holds a pass's longest
# message in one row when that is fewer).  Lane j's Horner by r is
# unrolled into one sum,
# L_j = sum_t c_(jR+t) * r^(R-1-t), so one product of the (k, 5R) block
# limbs with the (5R, 5) stack of r^(R-1) .. r^0 makes every lane of a
# record at once.  The tag is r * sum_j L_j * b^(k-1-j) + s with
# b = r^R: each fold step joins _FOLD adjacent lanes with b^(_FOLD-1)
# .. b^0 and raises b to the _FOLD-th power, so 64 lanes take two
# steps.  A record costs R + 16 scalar multiplications for its powers;
# the array work is one pass for the whole batch.
#
# Bounds: block limbs are under 2^26 (the top one under 2^25) and a
# power's limbs under 2^26, so output limb 0 of one row, the largest,
# is c0 v0 + 5 (c1 v4 + c2 v3 + c3 v2 + c4 v1) < (1 + 15 + 2.5) 2^52.
# R rows sum to under 18.5 R 2^52, below 2^64 while R <= 221: numpy
# wraps a uint64 silently, so a message longer than _ROWS_MAX rows of
# _LANES blocks takes more lanes instead.  A fold step sums at most
# _FOLD rows of carried limbs, far below.  Two carry passes take any
# uint64 back to limbs under 2^26 + 2^15 -- not under 2^26, so a value
# is joined from its limbs by adding them (_join), never by OR.

# Measured on a 2-core x86-64 VM, us, min of interleaved runs.  A 16 KiB
# record's MAC input (1,026 blocks), per record by records per pass,
# four-block tier / lanes: 1: 240 / 140, 2: 239 / 98, 4: 240 / 78,
# 8: 248 / 68, 16: 239 / 92.  A pass costs ~100 us and each record in
# it ~15 (its powers), so short records keep the big-int tier.  One
# record of n blocks, scalar / lanes on its own / added to a pass of
# seven 16 KiB records: 256: 57 / 99 / 55, 384: 84 / 100 / 38, 512:
# 108 / 107 / 41, 768: 176 / 123 / 62.  The crossover sits where a lone
# record breaks even; padded to 16 KiB it is still cheaper in lanes.
# Batch against record-by-record, us: one 16 KiB record and 15 of 40
# bytes 155 / 238, 16 x 64 blocks (all scalar) 243 / 233.
_LANE_MIN_BLOCKS = 512

_LANES = 64
_FOLD = 8
_ROWS_MAX = 128
_MASK26 = (1 << 26) - 1


@cache
def _matrix_layout():
    """Index and weight of the transposed multiply-by-v matrix:
    ``limbs(h * v) = limbs(h) @ (limbs(v)[index] * weight)``."""
    _np = _numpy()
    index = _np.array([[(i - j) % 5 for i in range(5)] for j in range(5)])
    weight = _np.array([[5 if j > i else 1 for i in range(5)]
                        for j in range(5)], dtype=_np.uint64)
    return index, weight


def _limbs(words, top):
    """The five 26-bit limbs (last axis) of 130-bit values given as
    little-endian 64-bit words (``words[..., 0]`` low, ``words[..., 1]``
    high) and their bits from 128 up (``top``)."""
    _np = _numpy()
    lo, hi = words[..., 0], words[..., 1]
    out = _np.empty(lo.shape + (5,), dtype=_np.uint64)
    out[..., 0] = lo & _MASK26
    out[..., 1] = (lo >> 26) & _MASK26
    out[..., 2] = ((lo >> 52) | (hi << 12)) & _MASK26
    out[..., 3] = (hi >> 14) & _MASK26
    out[..., 4] = (hi >> 40) | (top << 24)
    return out


def _carry(h):
    """Limbs (last axis) back under 2^26 + 2^15, in place."""
    for _ in range(2):
        c = h >> 26
        h &= _MASK26
        h[..., 1:] += c[..., :-1]
        c[..., 4] *= 5
        h[..., 0] += c[..., 4]
    return h


def _join(limbs):
    """The integer of five carried limbs: a limb may reach past bit 26,
    into the next one's, so they add."""
    l0, l1, l2, l3, l4 = limbs
    return l0 + (l1 << 26) + (l2 << 52) + (l3 << 78) + (l4 << 104)


def _macs_lanes(pairs):
    """The tag of every ``(key, message)`` of one pass."""
    _np = _numpy()
    keys, messages = zip(*pairs)
    count = len(messages)
    sizes = [len(message) for message in messages]
    blocks = [-(-size // 16) for size in sizes]
    longest = max(1, *blocks)
    lanes = min(_LANES, 1 << (longest - 1).bit_length())
    rows = -(-longest // lanes)
    while rows > _ROWS_MAX:
        lanes *= 2
        rows = -(-longest // lanes)
    total = rows * lanes
    # zero blocks in front; a short last block gets its pad bit in the
    # byte after it, a full block its 2^128 as bit 128
    words = _np.frombuffer(b"".join(
        part for message, size, nblocks in zip(messages, sizes, blocks)
        for part in (bytes(16 * (total - nblocks)), message,
                     b"\x01".ljust(-size % 16, b"\x00") if size % 16
                     else b"")), dtype="<u8").reshape(count, total, 2)
    position = _np.arange(total)
    starts = _np.array([total - nblocks for nblocks in blocks])[:, None]
    fulls = _np.array([size // 16 for size in sizes])[:, None]
    full = ((position >= starts) & (position < starts + fulls)).astype(
        _np.uint64)
    steps = []
    width = lanes
    while width > 1:
        steps.append(min(_FOLD, width))
        width //= steps[-1]
    # per record: r^(R-1) .. r^0, then b^(g-1) .. b^0 for each fold step
    rs, ss, powers = [], [], []
    for key in keys:
        r = int.from_bytes(key[:16], "little") & _CLAMP
        rs.append(r)
        ss.append(int.from_bytes(key[16:], "little"))
        base = r
        for group in (rows, *steps):
            run = [1]
            for _ in range(group):
                run.append(run[-1] * base % P1305)
            base = run.pop()
            powers.extend(reversed(run))
    index, weight = _matrix_layout()
    power_words = _np.frombuffer(b"".join(
        power.to_bytes(24, "little") for power in powers),
        dtype="<u8").reshape(-1, 3)
    matrices = (_limbs(power_words, power_words[:, 2])[:, index]
                * weight).reshape(count, -1, 5, 5)
    h = _carry(_limbs(words, full).reshape(count, lanes, 5 * rows)
               @ matrices[:, :rows].reshape(count, 5 * rows, 5))
    at = rows
    for group in steps:
        h = _carry(h.reshape(count, -1, 5 * group)
                   @ matrices[:, at:at + group].reshape(count, 5 * group, 5))
        at += group
    tags = []
    for limbs, r, s in zip(h[:, 0].tolist(), rs, ss):
        accumulator = _join(limbs) * r % P1305
        tags.append(((accumulator + s) & ((1 << 128) - 1))
                    .to_bytes(16, "little"))
    return tags


def poly1305_macs(keys, messages):
    """One 16-byte tag per ``(key, message)``, each key a 32-byte
    one-time key.

    Every message of :data:`_LANE_MIN_BLOCKS` blocks or more rides a
    lane pass with the batch's others (at most
    :data:`~repro.crypto.lanes.PASS_RECORDS` per pass) when numpy is
    importable; each shorter one takes the big-int tier on its own.
    """
    for key in keys:
        if len(key) != 32:
            raise ValueError("Poly1305 key must be 32 bytes")
    return tiered(list(zip(keys, messages)),
                  lambda pair: -(-len(pair[1]) // 16), _LANE_MIN_BLOCKS,
                  _macs_lanes, _mac_scalar)


def poly1305_mac(key, message):
    """16-byte tag over ``message`` with a 32-byte one-time key."""
    return poly1305_macs((key,), (message,))[0]
