"""FFDHE-2048 key exchange."""

import random

import pytest

from repro.crypto.ffdhe import FFDHE2048, DHKeyPair


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
