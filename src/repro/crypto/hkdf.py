"""HKDF (RFC 5869) and the TLS 1.3 key-schedule helpers (RFC 8446),
over SHA-256, the hash of every cipher suite this stack offers."""

import hashlib
import hmac
import struct

HASH = "sha256"
HASH_LEN = 32


def hkdf_extract(salt, ikm):
    """HKDF-Extract: PRK = HMAC-Hash(salt, IKM)."""
    if not salt:
        salt = b"\x00" * HASH_LEN
    return hmac.digest(salt, ikm, HASH)


def hkdf_expand(prk, info, length):
    """HKDF-Expand: OKM of ``length`` bytes."""
    if length > 255 * HASH_LEN:
        raise ValueError("HKDF-Expand length too large")
    okm = b""
    block = b""
    counter = 1
    while len(okm) < length:
        block = hmac.digest(prk, block + info + bytes([counter]), HASH)
        okm += block
        counter += 1
    return okm[:length]


def hkdf_expand_label(secret, label, context, length):
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
    return hkdf_expand(secret, hkdf_label, length)


def derive_secret(secret, label, transcript_messages):
    """TLS 1.3 Derive-Secret: expand with Transcript-Hash as context."""
    transcript_hash = hashlib.sha256(transcript_messages).digest()
    return hkdf_expand_label(secret, label, transcript_hash, HASH_LEN)
