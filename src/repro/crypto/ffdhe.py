"""Finite-field Diffie-Hellman over the RFC 7919 ffdhe2048 group.

Provides the ``(EC)DHE`` contribution to the TLS 1.3 handshake.  The
group is the standardised 2048-bit safe prime; private exponents are
256 bits (RFC 7919 section 5.2).  Key generation raises the fixed base
g = 2 with a Lim-Lee comb over a table built on first use; the
variable-base shared secret uses Python's ``pow``.
"""

import functools
import hashlib

# RFC 7919 appendix A.1: ffdhe2048 prime.
_FFDHE2048_P_HEX = (
    "FFFFFFFFFFFFFFFFADF85458A2BB4A9AAFDC5620273D3CF1"
    "D8B9C583CE2D3695A9E13641146433FBCC939DCE249B3EF9"
    "7D2FE363630C75D8F681B202AEC4617AD3DF1ED5D5FD6561"
    "2433F51F5F066ED0856365553DED1AF3B557135E7F57C935"
    "984F0C70E0E68B77E2A689DAF3EFE8721DF158A136ADE735"
    "30ACCA4F483A797ABC0AB182B324FB61D108A94BB2C8E3FB"
    "B96ADAB760D7F4681D4F42A3DE394DF4AE56EDE76372BB19"
    "0B07A7C8EE0A6D709E02FCE1CDF7E2ECC03404CD28342F61"
    "9172FE9CE98583FF8E4F1232EEF28183C3FE3B1B4C6FAD73"
    "3BB5FCBC2EC22005C58EF1837D1683B2C6F34A26C1B2EFFA"
    "886B423861285C97FFFFFFFFFFFFFFFF"
)

FFDHE2048_P = int(_FFDHE2048_P_HEX, 16)
FFDHE2048_G = 2
FFDHE2048_LEN = 256  # bytes

#: Rows of the fixed-base comb: the exponent is cut into this many
#: equal rows and one table entry covers one bit of each, so a key costs
#: ``exponent_bits / rows`` squarings and as many multiplications.
#: Measured (CPython 3.11, one 2048-bit mulmod = 12-13 us): 8 rows build
#: in 5.9 ms and cost 0.77 ms per key against ``pow``'s 2.75 ms; 6 rows
#: 3.4 ms / 1.03 ms, 9 rows 9.4 ms / 0.67 ms -- 8 rows are ahead of
#: ``pow`` from a process's 3rd key, of 6 rows from its 10th, and 9 rows
#: would need 35 keys to catch up with 8.
_COMB_ROWS = 8


@functools.lru_cache(maxsize=None)
def _comb_table():
    """``(width, table)`` of the comb for g = 2: rows are ``width`` bits
    wide and ``table[s]`` is the product of ``g^(2^(width*i))`` over the
    bits ``i`` set in ``s`` (256 entries, ~75 KB, built once a process).
    """
    width = -(-FFDHE2048.exponent_bits // _COMB_ROWS)
    table = [1] * (1 << _COMB_ROWS)
    base = FFDHE2048_G
    for row in range(_COMB_ROWS):
        if row:
            base = pow(base, 1 << width, FFDHE2048_P)
        bit = 1 << row
        for subset in range(bit, bit << 1):
            table[subset] = table[subset ^ bit] * base % FFDHE2048_P
    return width, tuple(table)


class FFDHE2048:
    """The ffdhe2048 named group (TLS group id 0x0100)."""

    group_id = 0x0100
    p = FFDHE2048_P
    g = FFDHE2048_G
    key_length = FFDHE2048_LEN

    #: private exponent size.  RFC 7919 section 5.2 / appendix A.1 put
    #: ffdhe2048's strength at 103-112 bits and allow exponents down
    #: to 225 bits; a short exponent makes each modexp ~8x cheaper.
    exponent_bits = 256

    @classmethod
    def generate(cls, rng):
        """Generate a key pair from the given ``random.Random``.

        The exponent is the top :attr:`exponent_bits` bits of one
        2048-bit draw with the high bit forced, so the RNG advances
        exactly as it did when the whole draw was the exponent (seeded
        runs keep their loss patterns and traces).
        """
        private = (rng.getrandbits(2048) >> (2048 - cls.exponent_bits)) \
            | (1 << (cls.exponent_bits - 1))
        width, table = _comb_table()
        bits = format(private, "0%db" % (width * _COMB_ROWS))
        p = cls.p
        public = 1
        for column in range(width):
            # bits[column::width] holds this column's bit of every row,
            # top row first: the table index as a binary numeral.
            public = public * public % p \
                * table[int(bits[column::width], 2)] % p
        return DHKeyPair(private, public)

    @classmethod
    def shared_secret(cls, private, peer_public):
        """Compute Z, left-padded to the group length (RFC 8446 7.4.1)."""
        if not 1 < peer_public < cls.p - 1:
            raise ValueError("peer public value out of range")
        z = pow(peer_public, private, cls.p)
        return z.to_bytes(cls.key_length, "big")


class DHKeyPair:
    """A private/public FFDHE key pair."""

    __slots__ = ("private", "public")

    def __init__(self, private, public):
        self.private = private
        self.public = public

    def public_bytes(self):
        return self.public.to_bytes(FFDHE2048_LEN, "big")

    @staticmethod
    def public_from_bytes(data):
        if len(data) != FFDHE2048_LEN:
            raise ValueError("ffdhe2048 public value must be 256 bytes")
        return int.from_bytes(data, "big")

    def fingerprint(self):
        """Short identifier for logs/tests."""
        return hashlib.sha256(self.public_bytes()).hexdigest()[:16]
