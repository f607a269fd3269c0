"""HKDF (RFC 5869) and the TLS 1.3 key-schedule helpers (RFC 8446)."""

import hashlib
import hmac
import struct

#: digest sizes of the TLS 1.3 hashes, so the key schedule does not
#: construct a hash object just to read one.
_DIGEST_SIZES = {"sha256": 32, "sha384": 48, "sha512": 64}


def _digest_size(hash_name):
    size = _DIGEST_SIZES.get(hash_name)
    if size is None:
        size = hashlib.new(hash_name).digest_size
    return size


def hkdf_extract(salt, ikm, hash_name="sha256"):
    """HKDF-Extract: PRK = HMAC-Hash(salt, IKM)."""
    if not salt:
        salt = b"\x00" * _digest_size(hash_name)
    return hmac.digest(salt, ikm, hash_name)


def hkdf_expand(prk, info, length, hash_name="sha256"):
    """HKDF-Expand: OKM of ``length`` bytes."""
    if length > 255 * _digest_size(hash_name):
        raise ValueError("HKDF-Expand length too large")
    okm = b""
    block = b""
    counter = 1
    while len(okm) < length:
        block = hmac.digest(prk, block + info + bytes([counter]), hash_name)
        okm += block
        counter += 1
    return okm[:length]


def hkdf_expand_label(secret, label, context, length, hash_name="sha256"):
    """TLS 1.3 HKDF-Expand-Label (RFC 8446 section 7.1).

    HkdfLabel = length(2) || "tls13 " + label (length-prefixed) ||
                context (length-prefixed)
    """
    full_label = b"tls13 " + label
    hkdf_label = (
        struct.pack("!H", length)
        + bytes([len(full_label)])
        + full_label
        + bytes([len(context)])
        + context
    )
    return hkdf_expand(secret, hkdf_label, length, hash_name)


def derive_secret(secret, label, transcript_messages, hash_name="sha256"):
    """TLS 1.3 Derive-Secret: expand with Transcript-Hash as context."""
    transcript_hash = hashlib.new(hash_name, transcript_messages).digest()
    return hkdf_expand_label(secret, label, transcript_hash,
                             _digest_size(hash_name), hash_name)
