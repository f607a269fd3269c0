"""Published test vectors: RFC 8439 (ChaCha20/Poly1305), FIPS 197 /
NIST GCM (AES), RFC 5869 (HKDF), RFC 8448-style expand-label."""

import pytest

from repro.crypto.aead import AeadAuthenticationError, Aes128Gcm
from repro.crypto.aes import Aes128
from repro.crypto.chacha20 import chacha20_block, chacha20_encrypt
from repro.crypto.hkdf import hkdf_expand, hkdf_expand_label, hkdf_extract
from repro.crypto.poly1305 import poly1305_mac


def test_chacha20_block_rfc8439_2_3_2():
    key = bytes(range(32))
    nonce = bytes.fromhex("000000090000004a00000000")
    block = chacha20_block(key, 1, nonce)
    assert block.hex() == (
        "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
        "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
    )


def test_chacha20_encrypt_rfc8439_2_4_2():
    key = bytes(range(32))
    nonce = bytes.fromhex("000000000000004a00000000")
    plaintext = (
        b"Ladies and Gentlemen of the class of '99: If I could offer you "
        b"only one tip for the future, sunscreen would be it."
    )
    ciphertext = chacha20_encrypt(key, 1, nonce, plaintext)
    assert ciphertext[:32].hex() == (
        "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
    )
    # Decryption is the same operation.
    assert chacha20_encrypt(key, 1, nonce, ciphertext) == plaintext


def test_poly1305_rfc8439_2_5_2():
    key = bytes.fromhex(
        "85d6be7857556d337f4452fe42d506a8"
        "0103808afb0db2fd4abff6af4149f51b"
    )
    tag = poly1305_mac(key, b"Cryptographic Forum Research Group")
    assert tag.hex() == "a8061dc1305136c6c22b8baf0c0127a9"


def test_aes128_fips197():
    aes = Aes128(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
    out = aes.encrypt_block(bytes.fromhex("00112233445566778899aabbccddeeff"))
    assert out.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"


def test_aes_gcm_nist_case_3():
    gcm = Aes128Gcm(bytes.fromhex("feffe9928665731c6d6a8f9467308308"))
    nonce = bytes.fromhex("cafebabefacedbaddecaf888")
    plaintext = bytes.fromhex(
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255"
    )
    out = gcm.seal(nonce, plaintext)
    assert out[:64].hex() == (
        "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
        "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
    )
    assert out[64:].hex() == "4d5c2af327cd64a62cf35abd2ba6fab4"
    assert gcm.open(nonce, out) == plaintext


def test_aes_gcm_nist_case_4_with_aad():
    gcm = Aes128Gcm(bytes.fromhex("feffe9928665731c6d6a8f9467308308"))
    nonce = bytes.fromhex("cafebabefacedbaddecaf888")
    plaintext = bytes.fromhex(
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39"
    )
    aad = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")
    out = gcm.seal(nonce, plaintext, aad)
    assert out[-16:].hex() == "5bc94fbc3221a5db94fae95ae7121a47"
    assert gcm.open(nonce, out, aad) == plaintext
    with pytest.raises(AeadAuthenticationError):
        gcm.open(nonce, out, b"wrong")


def test_hkdf_rfc5869_case_1():
    ikm = b"\x0b" * 22
    salt = bytes.fromhex("000102030405060708090a0b0c")
    info = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9")
    prk = hkdf_extract(salt, ikm)
    assert prk.hex() == (
        "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
    )
    okm = hkdf_expand(prk, info, 42)
    assert okm.hex() == (
        "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
        "34007208d5b887185865"
    )


def test_hkdf_rfc5869_case_2_long():
    ikm = bytes(range(0x50))
    salt = bytes(range(0x60, 0xB0))
    info = bytes(range(0xB0, 0x100))
    prk = hkdf_extract(salt, ikm)
    okm = hkdf_expand(prk, info, 82)
    assert okm.hex() == (
        "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c"
        "59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71"
        "cc30c58179ec3e87c14c01d5c1f3434f1d87"
    )


def test_hkdf_expand_label_structure():
    """Expand-Label output is deterministic and label-separated."""
    secret = b"\x01" * 32
    a = hkdf_expand_label(secret, b"key", b"", 16)
    b = hkdf_expand_label(secret, b"iv", b"", 16)
    c = hkdf_expand_label(secret, b"key", b"ctx", 16)
    assert len(a) == 16 and a != b and a != c
    assert hkdf_expand_label(secret, b"key", b"", 16) == a
