"""Cryptographic core for the TLS 1.3 / TCPLS stack.

Everything is implemented from scratch on the standard library:

- HKDF (RFC 5869) and the TLS 1.3 ``HKDF-Expand-Label`` / ``Derive-Secret``
  constructions (RFC 8446 section 7.1);
- ChaCha20 and Poly1305 with the RFC 8439 AEAD composition;
- AES-128 and GCM (NIST SP 800-38D) for the AES_128_GCM_SHA256 suite the
  paper benchmarks;
- finite-field Diffie-Hellman over the RFC 7919 ffdhe2048 group for the
  (EC)DHE part of the handshake;
- a ``null-tag`` cipher: identity "encryption" with a keyed, truncated
  SHA-256 authentication tag.  It preserves every structural property TCPLS
  relies on (16-byte tags, key/nonce-dependent authentication, hence
  working tag-trial stream demultiplexing) at hashlib speed, and is the
  default for simulator-scale experiments where pure-Python AES would
  dominate runtime.  The real ciphers are validated against published
  test vectors in the test suite.
"""

from repro.crypto.hkdf import (
    derive_secret,
    hkdf_expand,
    hkdf_expand_label,
    hkdf_extract,
)
from repro.crypto.aead import (
    Aead,
    AeadAuthenticationError,
    Aes128Gcm,
    Chacha20Poly1305,
    NullTagCipher,
    get_cipher,
)
from repro.crypto.ffdhe import FFDHE2048, DHKeyPair

__all__ = [
    "Aead",
    "AeadAuthenticationError",
    "Aes128Gcm",
    "Chacha20Poly1305",
    "DHKeyPair",
    "FFDHE2048",
    "NullTagCipher",
    "derive_secret",
    "get_cipher",
    "hkdf_expand",
    "hkdf_expand_label",
    "hkdf_extract",
]
