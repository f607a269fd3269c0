"""FFDHE-2048 key exchange."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto import ffdhe
from repro.crypto.ffdhe import FFDHE2048, DHKeyPair

_ROW = 0xFFFFFFFF  # one 32-bit comb row


class _FixedDraw:
    """An rng whose 2048-bit draw has the given top 256 bits."""

    def __init__(self, exponent):
        self.exponent = exponent

    def getrandbits(self, k):
        assert k == 2048
        return self.exponent << (2048 - 256)


@settings(max_examples=200, deadline=None)
@given(st.integers(2 ** 255, 2 ** 256 - 1))
@example(2 ** 255)                       # every row zero but the top bit
@example(2 ** 256 - 1)                   # every row all-ones
@example(2 ** 255 | _ROW)                # only the bottom row set
@example(2 ** 256 - 1 - _ROW)            # bottom row zero
@example(2 ** 255 | _ROW << 96 | _ROW << 160)   # alternating rows
@example((2 ** 256 - 1) // 3 | 2 ** 255)        # alternating columns
def test_comb_matches_pow(exponent):
    """The fixed-base comb against the ``pow`` it replaced, over every
    exponent ``generate`` can produce."""
    pair = FFDHE2048.generate(_FixedDraw(exponent))
    assert pair.private == exponent
    assert pair.public == pow(2, exponent, FFDHE2048.p)


def test_seeded_pair_is_pinned():
    """Recorded from the ``pow`` implementation: seeded traces, goldens
    and digests all hang off these bytes."""
    pair = FFDHE2048.generate(random.Random(3))
    assert pair.private == int(
        "ed4b9adbebcd1f5ec9c18070b6d13089633a50eee0f9e038eb8f624fb804d820",
        16)
    assert pair.public == int(
        "a1413dad38b62a37bcb040429e67edc840a7baa7b071395ffe24794e2c190c59"
        "839d9642b2dcd5ba76b96addbe5eb7e7f08bf498e1522515a376b28bc9fba373"
        "6db7546e39505882fbd2a858a948c71bedb3146e2defefd62037bc88d8e8800a"
        "3069c3b8c066f686017e22f33ce3a1aa47e37dcea897fcf494bdb9c71dcb5f27"
        "d72e94a89d3fd6f2ff319c2a0316642889e8d74b8f0a81368482e0a2ca8605a7"
        "d7b8760535574b7da16d9f8b7f813b7eb0b231d74ffb803511ae80ce81379315"
        "0415a43ae32e891cb7f93ccb663475ecc305b665bd9c053de00bfc592dbe62ac"
        "fb815e3653d7ea1ebad27caf2d84f2aa7a3496b2096cb7a52af8f467aa418aba",
        16)
    assert pair.fingerprint() == "87f767f6918904a1"


def test_comb_table_built_once_and_one_draw_per_key():
    ffdhe._comb_table.cache_clear()
    used, bare = random.Random(11), random.Random(11)
    for _ in range(2):
        FFDHE2048.generate(used)
        bare.getrandbits(2048)
        assert used.getstate() == bare.getstate()
    info = ffdhe._comb_table.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    width, table = ffdhe._comb_table()
    assert width * ffdhe._COMB_ROWS >= FFDHE2048.exponent_bits
    assert len(table) == 2 ** ffdhe._COMB_ROWS


def test_shared_secret_agreement():
    rng = random.Random(3)
    alice = FFDHE2048.generate(rng)
    bob = FFDHE2048.generate(rng)
    z_alice = FFDHE2048.shared_secret(alice.private, bob.public)
    z_bob = FFDHE2048.shared_secret(bob.private, alice.public)
    assert z_alice == z_bob
    assert len(z_alice) == 256  # left-padded to the group length


def test_different_pairs_different_secrets():
    rng = random.Random(4)
    a, b, c = (FFDHE2048.generate(rng) for _ in range(3))
    assert FFDHE2048.shared_secret(a.private, b.public) != \
        FFDHE2048.shared_secret(a.private, c.public)


def test_public_bytes_roundtrip():
    rng = random.Random(5)
    pair = FFDHE2048.generate(rng)
    assert DHKeyPair.public_from_bytes(pair.public_bytes()) == pair.public


def test_degenerate_peer_values_rejected():
    rng = random.Random(6)
    pair = FFDHE2048.generate(rng)
    for bad in (0, 1, FFDHE2048.p - 1, FFDHE2048.p):
        with pytest.raises(ValueError):
            FFDHE2048.shared_secret(pair.private, bad)


def test_public_bytes_length_enforced():
    with pytest.raises(ValueError):
        DHKeyPair.public_from_bytes(b"\x01" * 255)


def test_prime_is_the_rfc7919_group():
    # Spot-check the well-known prefix/suffix of the ffdhe2048 prime.
    hex_p = "%x" % FFDHE2048.p
    assert hex_p.startswith("ffffffffffffffffadf85458a2bb4a9a")
    assert hex_p.endswith("ffffffffffffffff")
    assert FFDHE2048.g == 2


def test_short_exponent_with_top_bit_set():
    rng = random.Random(8)
    for _ in range(20):
        private = FFDHE2048.generate(rng).private
        assert 2 ** 255 <= private < 2 ** 256


def test_generate_consumes_exactly_one_2048_bit_draw():
    """Seeded simulations share this RNG with loss models and cookies:
    key generation must advance it as a bare 2048-bit draw does, and the
    exponent is that draw's top 256 bits (high bit forced)."""
    used, bare = random.Random(9), random.Random(9)
    pair = FFDHE2048.generate(used)
    draw = bare.getrandbits(2048)
    assert used.getstate() == bare.getstate()
    assert pair.private == (draw >> (2048 - 256)) | (1 << 255)
    assert pair.public == pow(2, pair.private, FFDHE2048.p)
