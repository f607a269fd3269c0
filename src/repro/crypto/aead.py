"""AEAD cipher suite registry.

All ciphers share one interface so the TLS record layer and the TCPLS
per-stream contexts are cipher-agnostic:

- ``seal(nonce, plaintext, aad) -> ciphertext||tag``
- ``open(nonce, data, aad) -> plaintext`` (raises on bad tag)
- ``verify_tag(nonce, data, aad) -> bool`` -- authentication check
  without decryption
- ``prepare(data, aad) -> TagTrial`` -- the operation TCPLS uses to find
  the right stream context by trial (Sec. 3.3.1 of the paper): one MAC
  pass over the record, then ``trial.matches(nonce)`` per candidate and
  ``trial.plaintext(nonce)`` for the one that matched.

A cipher implements the :mod:`repro.crypto.tagtrial` primitives
(``mac_state`` / ``finish_tag`` / ``crypt`` and, where something depends
on the nonce alone, ``pads``); ``seal``, ``open`` and ``verify_tag`` are
built from them here, once, for every cipher.
"""

import hashlib

from repro.crypto.chacha20 import chacha20_keystreams
from repro.crypto.gcm import AesGcm
from repro.crypto.lanes import PASS_RECORDS, numpy as _numpy, xor
from repro.crypto.poly1305 import poly1305_mac
from repro.crypto.tagtrial import TagTrial


class AeadAuthenticationError(Exception):
    """Tag verification failed (treated as a forgery attempt)."""


class Aead:
    """Base AEAD: subclasses define key/nonce sizes and the primitives."""

    key_size = 32
    nonce_size = 12
    tag_size = 16
    name = "base"

    def __init__(self, key):
        if len(key) != self.key_size:
            raise ValueError(
                "%s key must be %d bytes" % (self.name, self.key_size)
            )
        self.key = key

    def mac_state(self, ciphertext, aad):
        """Everything the tag depends on except the nonce, folded once."""
        raise NotImplementedError

    #: ``pads(nonces, lengths)``: everything that depends on the nonce
    #: *alone*, for a run of records of ``lengths`` bytes -- one pad per
    #: record, the whole run in one lane pass.  A pad is what
    #: :meth:`finish_tag` and :meth:`crypt` otherwise work out from the
    #: nonce.  ``None`` where nothing depends on the nonce alone.
    pads = None

    def finish_tag(self, state, nonce, pad=None):
        """The tag of a :meth:`mac_state` under one nonce."""
        raise NotImplementedError

    def crypt(self, nonce, data, pad=None):
        """Unauthenticated en/decryption (the two are the same XOR)."""
        raise NotImplementedError

    def pads_per_pass(self):
        """How many records ahead it pays to ask :meth:`pads` for
        before their nonces are certain: a lane pass's worth, or 0
        without pads or without numpy (a run then costs what its
        records cost one by one, and a wrong guess is pure loss)."""
        return PASS_RECORDS if self.pads and _numpy() is not None else 0

    def prepare(self, data, aad=b"", ahead=None):
        """Fold ``ciphertext || tag`` once for trials under many nonces;
        ``ahead`` is a ``(nonce, pad)`` worked out beforehand."""
        return TagTrial(self, data, aad, ahead)

    def seal(self, nonce, plaintext, aad=b"", pad=None):
        """``ciphertext || tag``.  ``pad`` is the record's share of a
        :meth:`pads` pass over a run of records; a record sealed on its
        own is a run of one and asks for its own."""
        if pad is None and self.pads:
            pad, = self.pads((nonce,), (len(plaintext),))
        ciphertext = self.crypt(nonce, plaintext, pad)
        return ciphertext + self.finish_tag(
            self.mac_state(ciphertext, aad), nonce, pad)

    def open(self, nonce, data, aad=b""):
        trial = self.prepare(data, aad)
        if not trial.matches(nonce):
            raise AeadAuthenticationError("%s tag mismatch" % self.name)
        return trial.plaintext(nonce)

    def verify_tag(self, nonce, data, aad=b""):
        return self.prepare(data, aad).matches(nonce)


class Chacha20Poly1305(Aead):
    """RFC 8439 AEAD_CHACHA20_POLY1305.

    The Poly1305 one-time key is ChaCha20 block 0 *of the nonce*, so no
    part of the MAC arithmetic is nonce-independent: a trial shares only
    the padded MAC input, and every candidate nonce still costs one
    Poly1305 pass over the record.
    """

    key_size = 32
    name = "chacha20poly1305"

    def mac_state(self, ciphertext, aad):
        return b"".join((
            aad, b"\x00" * ((-len(aad)) % 16),
            ciphertext, b"\x00" * ((-len(ciphertext)) % 16),
            len(aad).to_bytes(8, "little"),
            len(ciphertext).to_bytes(8, "little"),
        ))

    def pads(self, nonces, lengths):
        """``(Poly1305 key, keystream)`` per record: block 0 of each
        nonce and the blocks after it, the whole run in one pass."""
        return [(bytes(stream[:32]), stream[64:])
                for stream in chacha20_keystreams(
                    self.key, [(0, nonce, 1 + (n + 63) // 64)
                               for nonce, n in zip(nonces, lengths)])]

    def finish_tag(self, mac_data, nonce, pad=None):
        key, _ = pad or self.pads((nonce,), (0,))[0]
        return poly1305_mac(key, mac_data)

    def crypt(self, nonce, data, pad=None):
        _, stream = pad or self.pads((nonce,), (len(data),))[0]
        return xor(data, stream)


class Aes128Gcm(AesGcm, Aead):
    """TLS_AES_128_GCM_SHA256's AEAD: the primitives are
    :class:`~repro.crypto.gcm.AesGcm`'s (GHASH once per record, one AES
    block per candidate nonce)."""

    key_size = 16
    name = "aes128gcm"

    def __init__(self, key):
        Aead.__init__(self, key)
        AesGcm.__init__(self, key)


class NullTagCipher(Aead):
    """Identity "encryption" with a keyed BLAKE2s tag.

    **Simulation substitute** (documented in DESIGN.md): pure-Python
    AES/ChaCha20 cannot sustain megabytes of emulated traffic, so
    simulator-scale experiments use this cipher.  It preserves the
    properties TCPLS depends on -- a 16-byte tag bound to (key, nonce,
    AAD, payload), failing verification under any other stream's key or
    nonce -- while "encrypting" at memcpy speed.  It offers **no
    confidentiality** and must never be used outside the simulator.

    The tag is ``BLAKE2s_key(len(aad) || aad || payload || nonce)``.
    The nonce goes *last* so that a tag trial hashes the record once and
    each candidate nonce costs one state copy plus one 12-byte update;
    the length prefix keeps the aad/payload boundary bound, and nonces
    are always ``nonce_size`` bytes, so the encoding stays injective.
    """

    key_size = 32
    name = "null-tag"

    def __init__(self, key):
        super().__init__(key)
        # keying absorbs one block; every record copies this state
        self._keyed = hashlib.blake2s(key=key, digest_size=self.tag_size)

    def mac_state(self, ciphertext, aad):
        mac = self._keyed.copy()
        mac.update(len(aad).to_bytes(8, "little") + aad)
        mac.update(ciphertext)
        return mac

    def finish_tag(self, mac, nonce, pad=None):
        mac = mac.copy()
        mac.update(nonce)
        return mac.digest()

    def crypt(self, nonce, data, pad=None):
        return bytes(data)


_CIPHERS = {
    Chacha20Poly1305.name: Chacha20Poly1305,
    Aes128Gcm.name: Aes128Gcm,
    NullTagCipher.name: NullTagCipher,
}


def get_cipher(name):
    """Look up an AEAD class by registry name."""
    try:
        return _CIPHERS[name]
    except KeyError:
        raise ValueError(
            "unknown cipher %r (have: %s)" % (name, ", ".join(sorted(_CIPHERS)))
        ) from None
