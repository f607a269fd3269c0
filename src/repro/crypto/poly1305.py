"""Poly1305 one-time authenticator (RFC 8439 section 2.5).

Two tiers over the same big-int arithmetic: one block per ``% p`` for
short messages, four blocks per ``% p`` (Horner over ``r^4``, the three
inner blocks weighted by ``r^3, r^2, r``) for long ones.
"""

import struct

P1305 = (1 << 130) - 5

_FOUR_BLOCKS = struct.Struct("<16s16s16s16s")

# Measured, us per MAC (one block / four blocks per reduction): 4 blocks
# 2.6 / 2.9, 6 blocks 3.6 / 3.7, 8 blocks 4.3 / 3.9, 16 blocks 7.6 / 5.8,
# 96 blocks 43 / 26, 1,026 blocks (a 16 KiB record's MAC input)
# 457 / 255.  Below the crossover the three extra powers of r cost more
# than they save.
_LANE_MIN_BLOCKS = 8


def poly1305_mac(key, message):
    """16-byte tag over ``message`` with a 32-byte one-time key.

    The per-chunk high bit is added arithmetically (``+ 2^(8*len)``)
    instead of concatenating ``b"\\x01"`` onto every 16-byte slice, so
    the loop allocates nothing beyond the chunk integers themselves.
    """
    if len(key) != 32:
        raise ValueError("Poly1305 key must be 32 bytes")
    r = int.from_bytes(key[:16], "little")
    r &= 0x0FFFFFFC0FFFFFFC0FFFFFFC0FFFFFFF  # clamp
    s = int.from_bytes(key[16:], "little")
    accumulator = 0
    n = len(message)
    full = n - (n % 16)
    high_bit = 1 << 128
    from_bytes = int.from_bytes
    done = 0
    if n >= 16 * _LANE_MIN_BLOCKS:
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
