"""AEAD cipher suite registry.

All ciphers share one interface so the TLS record layer and the TCPLS
per-stream contexts are cipher-agnostic:

- ``seal(nonce, plaintext, aad) -> ciphertext||tag``
- ``open(nonce, data, aad) -> plaintext`` bytes (raises on bad tag)
- ``verify_tag(nonce, data, aad) -> bool`` -- authentication check
  without decryption
- ``prepare(data, aad) -> TagTrial`` -- the operation TCPLS uses to find
  the right stream context by trial (Sec. 3.3.1 of the paper): one MAC
  pass over the record, then ``trial.matches(nonce)`` per candidate and
  ``trial.plaintext(nonce)`` for the one that matched;
- ``seal_many(nonces, plaintexts, aads)`` -- a run of records: its pads
  in one lane pass, its tags in one MAC pass.

A cipher implements the :mod:`repro.crypto.tagtrial` primitives
(``mac_state`` / ``finish_tag`` / ``crypt``, their run forms
``mac_states`` / ``finish_tags`` and, where something depends on the
nonce alone, ``pads``); ``seal_many``, ``open`` and ``verify_tag`` are
built from them here, once, and a record sealed on its own is a run of
one.  The null-tag cipher has nothing to batch and seals record by
record.
"""

import hashlib
from operator import add

from repro.crypto.chacha20 import chacha20_keystreams
from repro.crypto.gcm import AesGcm
from repro.crypto.lanes import PASS_RECORDS, numpy as _numpy, xor
from repro.crypto.poly1305 import poly1305_mac, poly1305_macs
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

    def mac_states(self, ciphertexts, aads):
        """:meth:`mac_state` of every record of a run."""
        return list(map(self.mac_state, ciphertexts, aads))

    #: ``pads(nonces, lengths)``: everything that depends on the nonce
    #: *alone*, for a run of records of ``lengths`` bytes -- one pad per
    #: record, the whole run in one lane pass.  A pad is what
    #: :meth:`finish_tag` and :meth:`crypt` otherwise work out from the
    #: nonce.  ``None`` where nothing depends on the nonce alone.
    pads = None

    def finish_tag(self, state, nonce, pad=None):
        """The tag of a :meth:`mac_state` under one nonce."""
        raise NotImplementedError

    def finish_tags(self, states, nonces, pads):
        """:meth:`finish_tag` of every record of a run, with its pad."""
        return list(map(self.finish_tag, states, nonces, pads))

    def crypt(self, nonce, data, pad=None):
        """Unauthenticated en/decryption (the two are the same XOR)."""
        raise NotImplementedError

    def pads_per_pass(self):
        """How many records ahead it pays to ask :meth:`pads` for
        before their nonces are certain: a lane pass's worth, or 0
        without pads or without numpy (a run then costs what its
        records cost one by one, and a wrong guess is pure loss)."""
        return PASS_RECORDS if self.pads and _numpy() is not None else 0

    def prepare(self, data, aad=b""):
        """Fold ``ciphertext || tag`` once for trials under many nonces."""
        return TagTrial(self, data, aad)

    def seal(self, nonce, plaintext, aad=b""):
        """``ciphertext || tag`` of one record: a run of one."""
        return self.seal_many((nonce,), (plaintext,), (aad,))[0]

    def seal_many(self, nonces, plaintexts, aads):
        """``ciphertext || tag`` of every record of a run: every pad in
        one lane pass, then every tag in one MAC pass."""
        pads = self.pads(nonces, [len(p) for p in plaintexts]) \
            if self.pads else [None] * len(nonces)
        ciphertexts = list(map(self.crypt, nonces, plaintexts, pads))
        return list(map(add, ciphertexts, self.finish_tags(
            self.mac_states(ciphertexts, aads), nonces, pads)))

    def seal_records(self, nonces, headers, inners):
        """Whole wire records, ``header || ciphertext || tag``, of a
        run: each record's header is its AAD, and its plaintext comes
        as a sequence of parts, gathered here."""
        return list(map(add, headers, self.seal_many(
            nonces, [b"".join(parts) for parts in inners], headers)))

    def open(self, nonce, data, aad=b""):
        trial = self.prepare(data, aad)
        if not trial.matches(nonce):
            raise AeadAuthenticationError("%s tag mismatch" % self.name)
        return bytes(trial.plaintext(nonce))

    def verify_tag(self, nonce, data, aad=b""):
        return self.prepare(data, aad).matches(nonce)


class Chacha20Poly1305(Aead):
    """RFC 8439 AEAD_CHACHA20_POLY1305.

    The Poly1305 one-time key is ChaCha20 block 0 *of the nonce*, so no
    part of the MAC arithmetic is nonce-independent: a trial shares only
    the padded MAC input, and every candidate nonce still costs one
    Poly1305 pass over the record -- except the one a run's tags were
    made for ahead, in one Poly1305 lane pass (:meth:`finish_tags`).
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

    def finish_tags(self, mac_datas, nonces, pads):
        """Every record's tag under its pad's key, in one Poly1305 pass."""
        return poly1305_macs([key for key, _ in pads], mac_datas)

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
    """Identity "encryption" with a keyed, truncated SHA-256 tag.

    **Simulation substitute** (documented in DESIGN.md): pure-Python
    AES/ChaCha20 cannot sustain megabytes of emulated traffic, so
    simulator-scale experiments use this cipher.  It preserves the
    properties TCPLS depends on -- a 16-byte tag bound to (key, nonce,
    AAD, payload), failing verification under any other stream's key or
    nonce -- while "encrypting" at memcpy speed.  It offers **no
    confidentiality** and must never be used outside the simulator.

    The tag is the first 16 bytes of
    ``SHA-256(key || 0^32 || len(aad) || aad || payload || nonce)``
    (``len(aad)`` 8 bytes little-endian).  Key and zeros fill exactly
    one 64-byte block, so keying is one precomputed state that every
    record copies.  A secret prefix is a MAC here because the tag is
    truncated: it withholds 128 of the 256 state bits (chop-MD), so the
    chaining value a length extension would continue from is never
    revealed.  The nonce goes *last* so that a tag trial hashes the
    record once and each candidate nonce costs one state copy plus one
    12-byte update; the length prefix keeps the aad/payload boundary
    bound, and nonces are always ``nonce_size`` bytes, so the encoding
    stays injective.  SHA-256 because OpenSSL runs it on the CPU's SHA
    extensions where they exist: a 16 KiB record hashes about three
    times faster than with BLAKE2s, and about as fast without them.
    """

    key_size = 32
    name = "null-tag"

    def __init__(self, key):
        super().__init__(key)
        # keying absorbs one block; every record copies this state
        self._keyed = hashlib.sha256(key + bytes(64 - self.key_size))

    def seal(self, nonce, plaintext, aad=b""):
        """One record at a time: there is nothing to batch, and a run of
        one would cost a 1 us seal another 1.6 us."""
        return bytes(plaintext) + self.finish_tag(
            self.mac_state(plaintext, aad), nonce)

    def seal_many(self, nonces, plaintexts, aads):
        return list(map(self.seal, nonces, plaintexts, aads))

    def seal_records(self, nonces, headers, inners):
        """A record costs one hash pass and one gather: the tag is
        folded over the parts where they lie, then header, parts and
        tag are joined once."""
        records = []
        for nonce, header, parts in zip(nonces, headers, inners):
            mac = self.mac_state(b"", header)
            for part in parts:
                mac.update(part)
            records.append(b"".join((header, *parts,
                                     self.finish_tag(mac, nonce))))
        return records

    def mac_state(self, ciphertext, aad):
        mac = self._keyed.copy()
        mac.update(len(aad).to_bytes(8, "little") + aad)
        mac.update(ciphertext)
        return mac

    def finish_tag(self, mac, nonce, pad=None):
        mac = mac.copy()
        mac.update(nonce)
        return mac.digest()[:self.tag_size]

    def crypt(self, nonce, data, pad=None):
        """The identity: ``data`` itself, a view stays a view (only
        ``open`` makes it bytes)."""
        return data


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
