"""Property tests: every crypto fast path is byte-identical to the
retained reference implementation.

Each bulk primitive has two tiers -- a big-int/scalar one for short
inputs and installs without numpy, and a lane one (numpy arrays, or four
blocks per reduction for Poly1305) for long inputs -- and one crossover
constant, ``_LANE_MIN_BLOCKS``, choosing between them.  All keep their
original implementations as oracles; Hypothesis drives random
keys/nonces/AAD/lengths through both tiers and across every crossover
and demands equality.  A deterministic 65536-byte case covers the
large-batch paths explicitly.
"""

import math
import os
import subprocess
import sys

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import aes, chacha20, gcm, lanes, poly1305
from repro.crypto.aead import Aes128Gcm, Chacha20Poly1305
from repro.crypto.aes import Aes128
from repro.crypto.chacha20 import (
    chacha20_block,
    chacha20_block_reference,
    chacha20_encrypt,
)
from repro.crypto.gcm import Ghash
from repro.crypto.poly1305 import P1305, poly1305_mac

from tests.crypto import test_vectors

TIERED = (chacha20, aes, gcm, poly1305)

needs_numpy = pytest.mark.skipif(
    lanes.numpy() is None, reason="the numpy lane tier needs numpy")

KEY16 = st.binary(min_size=16, max_size=16)
KEY32 = st.binary(min_size=32, max_size=32)
NONCE12 = st.binary(min_size=12, max_size=12)
BLOCK16 = st.binary(min_size=16, max_size=16)
DATA = st.binary(max_size=2048)
COUNTER = st.integers(min_value=0, max_value=0xFFFFFFFF)
# the buffer types TagTrial hands to the primitives
BUFFER = st.sampled_from([bytes, bytearray, memoryview])


def around_crossover(module, block_size):
    """Byte strings from one block below ``module``'s crossover to one
    block above it, ragged tails included."""
    blocks = module._LANE_MIN_BLOCKS
    return st.binary(min_size=(blocks - 2) * block_size + 1,
                     max_size=(blocks + 1) * block_size - 1)


def force_tier(monkeypatch, tier):
    """``short``: no input reaches a lane tier; ``lanes``: every
    non-empty input does; ``no-numpy``: the modules behave as on an
    install where numpy is not importable."""
    if tier == "no-numpy":
        monkeypatch.setattr(lanes, "_np", None)
        return
    minimum = {"short": math.inf, "lanes": 1}[tier]
    for module in TIERED:
        monkeypatch.setattr(module, "_LANE_MIN_BLOCKS", minimum)


def poly1305_reference(key, message):
    """Naive RFC 8439 Poly1305 (chunk concatenation, per-chunk pad)."""
    r = int.from_bytes(key[:16], "little") & 0x0FFFFFFC0FFFFFFC0FFFFFFC0FFFFFFF
    s = int.from_bytes(key[16:], "little")
    acc = 0
    for i in range(0, len(message), 16):
        chunk = message[i:i + 16] + b"\x01"
        acc = (acc + int.from_bytes(chunk, "little")) * r % P1305
    return ((acc + s) & ((1 << 128) - 1)).to_bytes(16, "little")


def chacha20_reference(key, counter, nonce, data):
    stream = b"".join(
        chacha20_block_reference(key, (counter + i) & 0xFFFFFFFF, nonce)
        for i in range((len(data) + 63) // 64)
    )
    return bytes(p ^ k for p, k in zip(data, stream))


def ctr_reference(aes128, prefix, counter, nblocks):
    return b"".join(
        aes128.encrypt_block_reference(
            prefix + ((counter + i) & 0xFFFFFFFF).to_bytes(4, "big"))
        for i in range(nblocks)
    )


@given(key=KEY16, block=BLOCK16)
def test_aes_block_fast_matches_reference(key, block):
    aes128 = Aes128(key)
    assert aes128.encrypt_block(block) == \
        aes128.encrypt_block_reference(block)


@given(key=KEY16, prefix=NONCE12, counter=COUNTER,
       nblocks=st.integers(min_value=1, max_value=40), buffer=BUFFER)
@settings(max_examples=40, deadline=None)
def test_aes_ctr_keystream_matches_reference(
        key, prefix, counter, nblocks, buffer):
    aes128 = Aes128(key)
    assert aes128.ctr_keystream(buffer(prefix), counter, nblocks) == \
        ctr_reference(aes128, prefix, counter, nblocks)


@given(key=KEY16, aad=DATA, ciphertext=DATA)
@settings(max_examples=60, deadline=None)
def test_ghash_tables_match_per_bit_reference(key, aad, ciphertext):
    ghash = Ghash(Aes128(key).encrypt_block(b"\x00" * 16))
    assert ghash.digest(aad, ciphertext) == \
        ghash.digest_reference(aad, ciphertext)


@given(key=KEY16, aad=st.binary(min_size=1, max_size=40),
       ciphertext=around_crossover(gcm, 16), buffer=BUFFER)
@settings(max_examples=40, deadline=None)
def test_ghash_across_the_crossover_with_carry_in(
        key, aad, ciphertext, buffer):
    """A non-empty AAD leaves a non-zero state for the ciphertext fold
    to start from, whichever tier that fold takes."""
    ghash = Ghash(Aes128(key).encrypt_block(b"\x00" * 16))
    assert ghash.digest(aad, buffer(ciphertext)) == \
        ghash.digest_reference(aad, ciphertext)


@given(key=KEY32, counter=COUNTER, nonce=NONCE12)
def test_chacha20_block_fast_matches_reference(key, counter, nonce):
    assert chacha20_block(key, counter, nonce) == \
        chacha20_block_reference(key, counter, nonce)


@given(key=KEY32, counter=st.integers(min_value=0, max_value=0xFFFFFF00),
       nonce=NONCE12, plaintext=DATA)
@settings(max_examples=60, deadline=None)
def test_chacha20_encrypt_matches_reference_composition(
        key, counter, nonce, plaintext):
    assert chacha20_encrypt(key, counter, nonce, plaintext) == \
        chacha20_reference(key, counter, nonce, plaintext)


@given(key=KEY32, counter=COUNTER, nonce=NONCE12,
       plaintext=around_crossover(chacha20, 64), buffer=BUFFER)
@settings(max_examples=40, deadline=None)
def test_chacha20_encrypt_across_the_crossover(
        key, counter, nonce, plaintext, buffer):
    assert chacha20_encrypt(key, counter, nonce, buffer(plaintext)) == \
        chacha20_reference(key, counter, nonce, plaintext)


@given(key=KEY32, message=DATA)
@settings(max_examples=60, deadline=None)
def test_poly1305_matches_reference(key, message):
    assert poly1305_mac(key, message) == poly1305_reference(key, message)


@given(key=KEY32, message=around_crossover(poly1305, 16), buffer=BUFFER)
@settings(max_examples=60, deadline=None)
def test_poly1305_across_the_crossover(key, message, buffer):
    assert poly1305_mac(key, buffer(message)) == \
        poly1305_reference(key, message)


@pytest.mark.parametrize("tier", ["short", "lanes"])
@given(key=KEY32, nonce=NONCE12, aad=st.binary(max_size=40),
       plaintext=st.binary(max_size=400), counter=COUNTER, buffer=BUFFER)
@settings(max_examples=30, deadline=None)
def test_every_primitive_in_a_forced_tier(
        tier, key, nonce, aad, plaintext, counter, buffer):
    """With the crossover at 1 every non-empty input takes the lane
    tier, with it at infinity none does; the bytes out do not change."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        force_tier(monkeypatch, tier)
        assert chacha20_encrypt(key, counter, nonce, buffer(plaintext)) == \
            chacha20_reference(key, counter, nonce, plaintext)
        assert poly1305_mac(key, buffer(plaintext)) == \
            poly1305_reference(key, plaintext)
        aes128 = Aes128(key[:16])
        nblocks = len(plaintext) // 16
        assert aes128.ctr_keystream(buffer(nonce), counter, nblocks) == \
            ctr_reference(aes128, nonce, counter, nblocks)
        ghash = Ghash(aes128.encrypt_block(b"\x00" * 16))
        assert ghash.digest(buffer(aad), buffer(plaintext)) == \
            ghash.digest_reference(aad, plaintext)


VECTORS = [
    test_vectors.test_chacha20_block_rfc8439_2_3_2,
    test_vectors.test_chacha20_encrypt_rfc8439_2_4_2,
    test_vectors.test_poly1305_rfc8439_2_5_2,
    test_vectors.test_aes128_fips197,
    test_vectors.test_aes_gcm_nist_case_3,
    test_vectors.test_aes_gcm_nist_case_4_with_aad,
]


@pytest.mark.parametrize("vector", VECTORS, ids=lambda test: test.__name__)
@pytest.mark.parametrize("tier", ["short", "lanes", "no-numpy"])
def test_published_vectors_in_a_forced_tier(monkeypatch, tier, vector):
    """RFC 8439 and NIST SP 800-38D answers from each tier alone."""
    force_tier(monkeypatch, tier)
    vector()


@given(key=KEY32, nonce=NONCE12, plaintext=DATA, aad=DATA)
@settings(max_examples=40, deadline=None)
def test_chacha20poly1305_roundtrip(key, nonce, plaintext, aad):
    aead = Chacha20Poly1305(key)
    sealed = aead.seal(nonce, plaintext, aad)
    assert aead.verify_tag(nonce, sealed, aad)
    assert aead.open(nonce, sealed, aad) == plaintext


@given(key=KEY16, nonce=NONCE12, plaintext=DATA, aad=DATA)
@settings(max_examples=40, deadline=None)
def test_aes128gcm_roundtrip(key, nonce, plaintext, aad):
    aead = Aes128Gcm(key)
    sealed = aead.seal(nonce, plaintext, aad)
    assert aead.verify_tag(nonce, sealed, aad)
    assert aead.open(nonce, sealed, aad) == plaintext


def test_large_batch_paths_match_references_65536():
    """One deterministic 65536-byte case: exercises the lane tiers of
    ChaCha20, AES-CTR, GHASH and Poly1305 (the short ones when numpy is
    missing) at a size far beyond what Hypothesis generates."""
    data = bytes(i * 131 % 251 for i in range(65536))
    key32 = bytes(range(32))
    key16 = bytes(range(16))
    nonce = bytes(range(12))

    assert chacha20_encrypt(key32, 1, nonce, data) == \
        chacha20_reference(key32, 1, nonce, data)
    assert len(data) // 64 >= chacha20._LANE_MIN_BLOCKS

    aes128 = Aes128(key16)
    nblocks = len(data) // 16
    assert aes128.ctr_keystream(nonce, 2, nblocks) == \
        ctr_reference(aes128, nonce, 2, nblocks)

    ghash = Ghash(aes128.encrypt_block(b"\x00" * 16))
    assert ghash.digest(b"hdr", data) == ghash.digest_reference(b"hdr", data)

    assert poly1305_mac(key32, data) == poly1305_reference(key32, data)

    for aead in (Chacha20Poly1305(key32), Aes128Gcm(key16)):
        sealed = aead.seal(nonce, data, b"hdr")
        assert aead.open(nonce, sealed, b"hdr") == data


def test_ctr_counter_wraps_modulo_2_32():
    aes128 = Aes128(bytes(range(16)))
    prefix = b"\xAA" * 12
    nblocks = aes._LANE_MIN_BLOCKS - 1          # the scalar tier
    assert aes128.ctr_keystream(prefix, 0xFFFFFFFE, nblocks) == \
        ctr_reference(aes128, prefix, 0xFFFFFFFE, nblocks)


def test_swar_counter_wraps_modulo_2_32():
    key = bytes(range(32))
    nonce = b"\x07" * 12
    data = bytes(64 * 8)                         # the wide-integer tier
    assert len(data) // 64 < chacha20._LANE_MIN_BLOCKS
    assert chacha20_encrypt(key, 0xFFFFFFFD, nonce, data) == \
        chacha20_reference(key, 0xFFFFFFFD, nonce, data)


@needs_numpy
@pytest.mark.parametrize("first", [0xFFFFFFFD, 0xFFFFFFFF, 0x1FFFFFFFE])
def test_lane_counters_wrap_modulo_2_32(first):
    """The counter row of a lane state is 64-bit until it is cast, so a
    run that crosses 2^32 -- or starts beyond it -- wraps as the scalar
    tiers' ``& 0xFFFFFFFF`` does."""
    nonce = b"\x07" * 12
    data = bytes(64 * (chacha20._LANE_MIN_BLOCKS + 4))
    assert chacha20_encrypt(bytes(range(32)), first, nonce, data) == \
        chacha20_reference(bytes(range(32)), first, nonce, data)

    aes128 = Aes128(bytes(range(16)))
    nblocks = aes._LANE_MIN_BLOCKS + 4
    assert aes128.ctr_keystream(nonce, first, nblocks) == \
        ctr_reference(aes128, nonce, first, nblocks)


def test_ghash_builds_its_tables_on_first_use():
    """Half the keys of a connection never hash a byte: constructing a
    ``Ghash`` builds nothing, a short fold builds the scalar tables only."""
    ghash = Ghash(bytes(range(16)))
    assert not {"_tables", "_lane_table"} & set(vars(ghash))
    ghash.digest(b"hdr", b"short")
    assert "_tables" in vars(ghash) and "_lane_table" not in vars(ghash)


def test_aead_suite_passes_without_numpy():
    """The rest of this directory in an interpreter whose crypto modules
    found no numpy (``lanes._np`` is ``None``, as after a failed import):
    what an install without the ``fast`` extra runs."""
    here = os.path.dirname(os.path.abspath(__file__))
    script = (
        "import sys, pytest\n"
        "from repro.crypto import lanes\n"
        "lanes._np = None\n"
        "sys.exit(pytest.main(['-q', '-x', '-p', 'no:cacheprovider', %r,\n"
        "                      '-k', 'not without_numpy']))\n" % here
    )
    result = subprocess.run(
        [sys.executable, "-c", script], timeout=600,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        cwd=os.path.dirname(os.path.dirname(here)),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    assert result.returncode == 0, result.stdout[-4000:]
