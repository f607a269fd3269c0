"""Prepared tag trials: one MAC pass, many candidate nonces.

The references below rebuild each cipher's tag and plaintext from its
primitives, independently of ``seal``/``open``/``TagTrial`` (which all
share one implementation now), so a mistake in the shared path cannot
hide behind itself.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aead import (
    Aes128Gcm,
    AeadAuthenticationError,
    Chacha20Poly1305,
    NullTagCipher,
)
from repro.crypto.aes import Aes128
from repro.crypto.chacha20 import chacha20_block, chacha20_encrypt
from repro.crypto.gcm import Ghash
from repro.crypto.poly1305 import poly1305_mac

CIPHERS = [Chacha20Poly1305, Aes128Gcm, NullTagCipher]


def _xor(a, b):
    return bytes(x ^ y for x, y in zip(a, b))


def _pad16(data):
    return data + b"\x00" * (-len(data) % 16)


def reference_seal(cipher_cls, key, nonce, plaintext, aad):
    """``ciphertext || tag`` straight from the specifications."""
    if cipher_cls is NullTagCipher:
        tag = hashlib.blake2s(
            len(aad).to_bytes(8, "little") + aad + plaintext + nonce,
            key=key, digest_size=16).digest()
        return plaintext + tag
    if cipher_cls is Chacha20Poly1305:
        ciphertext = chacha20_encrypt(key, 1, nonce, plaintext)
        mac_data = (_pad16(aad) + _pad16(ciphertext)
                    + len(aad).to_bytes(8, "little")
                    + len(ciphertext).to_bytes(8, "little"))
        return ciphertext + poly1305_mac(
            chacha20_block(key, 0, nonce)[:32], mac_data)
    aes = Aes128(key)
    blocks = (len(plaintext) + 15) // 16
    ciphertext = _xor(plaintext, aes.ctr_keystream(nonce, 2, blocks)) \
        if blocks else b""
    s = Ghash(aes.encrypt_block(b"\x00" * 16)).digest_reference(
        aad, ciphertext)
    return ciphertext + _xor(s, aes.encrypt_block(nonce + b"\x00\x00\x00\x01"))


keys = st.binary(min_size=32, max_size=32)
nonces = st.binary(min_size=12, max_size=12)


@pytest.mark.parametrize("cipher_cls", CIPHERS)
@settings(max_examples=40, deadline=None)
@given(key=keys, aad=st.binary(max_size=24), payload=st.binary(max_size=96),
       right=nonces, wrong=st.lists(nonces, max_size=6), data=st.data())
def test_trial_agrees_with_naive_loop_and_reference(
        cipher_cls, key, aad, payload, right, wrong, data):
    """Right nonce at a random position or absent: the prepared trial
    answers every candidate as a fresh ``verify_tag`` would, the wire
    bytes equal the reference, and plaintext-after-match equals both the
    payload and ``open``."""
    key = key[:cipher_cls.key_size]
    cipher = cipher_cls(key)
    sealed = cipher.seal(right, payload, aad)
    assert sealed == reference_seal(cipher_cls, key, right, payload, aad)

    candidates = [n for n in wrong if n != right]
    present = data.draw(st.booleans())
    if present:
        candidates.insert(
            data.draw(st.integers(0, len(candidates))), right)

    trial = cipher.prepare(sealed, aad)
    answers = [trial.matches(nonce) for nonce in candidates]
    assert answers == [cipher.verify_tag(nonce, sealed, aad)
                       for nonce in candidates]
    assert answers == [nonce == right for nonce in candidates]
    if present:
        assert trial.plaintext(right) == payload
        assert cipher.open(right, sealed, aad) == payload
    # a trial is not consumed by a match: still rejects, still accepts
    assert trial.matches(right)


@pytest.mark.parametrize("cipher_cls", CIPHERS)
def test_every_cipher_exposes_the_three_primitives(cipher_cls):
    """``seal`` is ``crypt`` then ``finish_tag(mac_state(...))`` on the
    cipher object itself, for all three ciphers (``Aes128Gcm`` used to
    hide them on a wrapped object and raise ``NotImplementedError``)."""
    key = bytes(range(cipher_cls.key_size))
    cipher = cipher_cls(key)
    nonce, payload, aad = b"\x05" * 12, b"three primitives" * 9, b"hdr"
    ciphertext = cipher.crypt(nonce, payload)
    tag = cipher.finish_tag(cipher.mac_state(ciphertext, aad), nonce)
    assert ciphertext + tag == cipher.seal(nonce, payload, aad) \
        == reference_seal(cipher_cls, key, nonce, payload, aad)
    assert cipher.crypt(nonce, ciphertext) == payload


@pytest.mark.parametrize("cipher_cls", CIPHERS)
def test_trial_accepts_any_buffer_type(cipher_cls):
    cipher = cipher_cls(bytes(range(cipher_cls.key_size)))
    nonce = b"\x09" * 12
    sealed = cipher.seal(nonce, b"payload bytes", b"hdr")
    for wrap in (bytes, bytearray, memoryview):
        trial = cipher.prepare(wrap(sealed), b"hdr")
        assert trial.matches(nonce)
        assert trial.plaintext(nonce) == b"payload bytes"


@pytest.mark.parametrize("cipher_cls", CIPHERS)
@pytest.mark.parametrize("length", [0, 1, 15])
def test_short_input_is_no_match_not_an_exception(cipher_cls, length):
    cipher = cipher_cls(bytes(range(cipher_cls.key_size)))
    short = b"\xAA" * length
    assert not cipher.prepare(short, b"hdr").matches(b"\x00" * 12)
    assert not cipher.verify_tag(b"\x00" * 12, short, b"hdr")
    with pytest.raises(AeadAuthenticationError):
        cipher.open(b"\x00" * 12, short, b"hdr")


@pytest.mark.parametrize("cipher_cls", CIPHERS)
def test_tag_only_record_authenticates_empty_payload(cipher_cls):
    cipher = cipher_cls(bytes(range(cipher_cls.key_size)))
    sealed = cipher.seal(b"\x01" * 12, b"", b"hdr")
    assert len(sealed) == cipher.tag_size
    assert cipher.open(b"\x01" * 12, sealed, b"hdr") == b""


# -- null-tag negatives: the nonce-last construction binds everything ------

def _flip(data, bit):
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


@settings(max_examples=60, deadline=None)
@given(key=keys, nonce=nonces, aad=st.binary(min_size=1, max_size=16),
       payload=st.binary(min_size=1, max_size=64), data=st.data())
def test_null_tag_rejects_any_single_bit_flip(key, nonce, aad, payload, data):
    sealed = NullTagCipher(key).seal(nonce, payload, aad)

    def bit(of):
        return data.draw(st.integers(0, 8 * len(of) - 1))

    assert NullTagCipher(key).verify_tag(nonce, sealed, aad)
    assert not NullTagCipher(_flip(key, bit(key))).verify_tag(
        nonce, sealed, aad)
    assert not NullTagCipher(key).verify_tag(
        _flip(nonce, bit(nonce)), sealed, aad)
    assert not NullTagCipher(key).verify_tag(
        nonce, sealed, _flip(aad, bit(aad)))
    # one flip anywhere in payload || tag
    assert not NullTagCipher(key).verify_tag(
        nonce, _flip(sealed, bit(sealed)), aad)


@settings(max_examples=60, deadline=None)
@given(key=keys, nonce=nonces, blob=st.binary(min_size=2, max_size=48),
       data=st.data())
def test_null_tag_binds_the_aad_payload_boundary(key, nonce, blob, data):
    """Same bytes, boundary moved: ``aad || payload`` is identical but
    ``len(aad)`` is not, so the tag must differ."""
    cipher = NullTagCipher(key)
    cut_a = data.draw(st.integers(0, len(blob)))
    cut_b = data.draw(st.integers(0, len(blob)).filter(lambda c: c != cut_a))
    tag = cipher.seal(nonce, blob[cut_a:], blob[:cut_a])[-16:]
    assert not cipher.verify_tag(nonce, blob[cut_b:] + tag, blob[:cut_b])


def test_null_tag_payload_tail_is_not_mistaken_for_the_nonce():
    """Nonce-last: moving bytes between the payload's end and the nonce
    changes the payload length, which the receiver sees; an equal-length
    swap of the two must still fail."""
    cipher = NullTagCipher(b"k" * 32)
    nonce_a, nonce_b = b"A" * 12, b"B" * 12
    sealed = cipher.seal(nonce_a, b"x" * 4 + nonce_b, b"hdr")
    swapped = b"x" * 4 + nonce_a + sealed[-16:]
    assert not cipher.verify_tag(nonce_b, swapped, b"hdr")
