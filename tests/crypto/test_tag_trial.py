"""Prepared tag trials: one MAC pass, many candidate nonces.

The references below rebuild each cipher's tag and plaintext from its
primitives, independently of ``seal``/``open``/``TagTrial`` (which all
share one implementation now), so a mistake in the shared path cannot
hide behind itself.
"""

import hashlib
import struct

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
        tag = hashlib.sha256(
            key + b"\x00" * 32 + len(aad).to_bytes(8, "little") + aad
            + plaintext + nonce).digest()[:16]
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
@settings(max_examples=25, deadline=None)
@given(payload=st.binary(max_size=200),
       cuts=st.lists(st.integers(0, 200), max_size=4))
def test_seal_records_gathers_parts_as_seal_does(cipher_cls, payload, cuts):
    """A wire record sealed from its plaintext's parts (views, as the
    pump cuts them) is its header and the contiguous plaintext's seal."""
    cipher = cipher_cls(bytes(range(cipher_cls.key_size)))
    bounds = sorted({min(cut, len(payload)) for cut in cuts})
    parts = [memoryview(payload)[a:b]
             for a, b in zip([0] + bounds, bounds + [len(payload)])]
    header = b"\x17\x03\x03" + (len(payload) + 16).to_bytes(2, "big")
    nonce = b"\x07" * 12
    (wire,) = cipher.seal_records([nonce], [header], [parts])
    assert wire == header + cipher.seal(nonce, payload, header)


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


# -- null-tag: a length extension needs the 128 bits the tag withholds ------

_M32 = 0xFFFFFFFF


def _icbrt(n):
    x = 1 << -(-n.bit_length() // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


#: SHA-256 round constants: the first 32 fraction bits of the cube roots
#: of the first 64 primes (FIPS 180-4, 4.2.2)
_K = [_icbrt(p << 96) & _M32 for p in
      [p for p in range(2, 312)
       if all(p % q for q in range(2, int(p ** 0.5) + 1))][:64]]


def _rotr(x, n):
    return (x >> n | x << (32 - n)) & _M32


def _compress(state, block):
    """One SHA-256 compression (FIPS 180-4, 6.2.2)."""
    w = list(struct.unpack(">16I", block))
    for i in range(16, 64):
        s0 = _rotr(w[i - 15], 7) ^ _rotr(w[i - 15], 18) ^ w[i - 15] >> 3
        s1 = _rotr(w[i - 2], 17) ^ _rotr(w[i - 2], 19) ^ w[i - 2] >> 10
        w.append((w[i - 16] + s0 + w[i - 7] + s1) & _M32)
    a, b, c, d, e, f, g, h = state
    for i in range(64):
        t1 = (h + (_rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25))
              + (e & f ^ ~e & g) + _K[i] + w[i]) & _M32
        t2 = (_rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)) \
            + (a & b ^ a & c ^ b & c)
        h, g, f, e, d, c, b, a = g, f, e, (d + t1) & _M32, c, b, a, \
            (t1 + t2) & _M32
    return [(x + y) & _M32 for x, y in zip(state, (a, b, c, d, e, f, g, h))]


def _md_pad(length):
    """SHA-256's padding of a ``length``-byte message."""
    return (b"\x80" + b"\x00" * ((55 - length) % 64)
            + (8 * length).to_bytes(8, "big"))


def _extend(digest, hashed, suffix):
    """SHA-256 of ``m || suffix`` from the 32-byte ``digest`` of ``m``,
    where ``hashed`` is ``len(m)`` plus its padding: a length extension,
    which needs no key -- only the whole chaining value."""
    state = list(struct.unpack(">8I", digest))
    tail = suffix + _md_pad(hashed + len(suffix))
    for offset in range(0, len(tail), 64):
        state = _compress(state, tail[offset:offset + 64])
    return struct.pack(">8I", *state)


@settings(max_examples=20, deadline=None)
@given(key=keys, nonce=nonces, aad=st.binary(max_size=16),
       payload=st.binary(max_size=80),
       suffix=st.binary(min_size=12, max_size=40))
def test_null_tag_resists_length_extension(key, nonce, aad, payload,
                                           suffix):
    """A forger who sees a record and its tag appends SHA-256's padding
    and ``suffix`` -- whose last 12 bytes become the forged nonce.  With
    the whole digest the forgery would verify (the control below); the
    tag is its first half, and guessing the other half fails."""
    cipher = NullTagCipher(key)
    sealed = cipher.seal(nonce, payload, aad)
    message = (key + b"\x00" * 32 + len(aad).to_bytes(8, "little") + aad
               + payload + nonce)
    glue = _md_pad(len(message))
    hashed = len(message) + len(glue)
    forged = payload + nonce + glue + suffix[:-12]
    forged_nonce = suffix[-12:]
    whole = hashlib.sha256(message).digest()
    assert _extend(whole, hashed, suffix) == \
        hashlib.sha256(message + glue + suffix).digest()
    assert cipher.verify_tag(
        forged_nonce, forged + _extend(whole, hashed, suffix)[:16], aad)
    guessed = _extend(sealed[-16:] + b"\x00" * 16, hashed, suffix)[:16]
    assert not cipher.verify_tag(forged_nonce, forged + guessed, aad)
