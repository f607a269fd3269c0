"""TLS 1.3 key schedule (RFC 8446 section 7.1).

The schedule is the Extract/Derive-Secret chain:

    0 / PSK -> early secret
      +-> Derive-Secret(., "derived") + DHE -> handshake secret
            +-> client/server handshake traffic secrets
            +-> Derive-Secret(., "derived") + 0 -> master secret
                  +-> client/server application traffic secrets

TCPLS's Fig. 2 IV derivation starts from the traffic IVs produced here.
"""

import hashlib
import hmac

from repro.crypto.hkdf import (
    HASH,
    HASH_LEN,
    derive_secret,
    hkdf_expand_label,
    hkdf_extract,
)


class TrafficKeys:
    """AEAD key + 12-byte static IV derived from one traffic secret."""

    __slots__ = ("secret", "key", "iv")

    def __init__(self, secret, key_size):
        self.secret = secret
        self.key = hkdf_expand_label(secret, b"key", b"", key_size)
        self.iv = hkdf_expand_label(secret, b"iv", b"", 12)


class KeySchedule:
    """Runs the schedule incrementally as handshake messages are hashed."""

    def __init__(self, cipher_cls, psk=b""):
        self.cipher_cls = cipher_cls
        self._transcript = hashlib.sha256()
        self._transcript_bytes = b""
        self.early_secret = hkdf_extract(b"", psk or b"\x00" * HASH_LEN)
        self.handshake_secret = None
        self.master_secret = None
        self.client_handshake = None
        self.server_handshake = None
        self.client_application = None
        self.server_application = None

    # -- transcript ------------------------------------------------------

    def update_transcript(self, raw_message):
        """Hash a serialized handshake message into the transcript."""
        self._transcript.update(raw_message)
        self._transcript_bytes += raw_message

    def transcript_hash(self):
        return self._transcript.copy().digest()

    # -- secrets -----------------------------------------------------------

    def derive_early_traffic(self):
        """client_early_traffic_secret for 0-RTT data (after CH)."""
        secret = self._derive("c e traffic", self.early_secret)
        return TrafficKeys(secret, self.cipher_cls.key_size)

    def derive_handshake(self, dhe_shared_secret):
        """After ServerHello: handshake traffic keys."""
        derived = derive_secret(self.early_secret, b"derived", b"")
        self.handshake_secret = hkdf_extract(derived, dhe_shared_secret)
        client = self._derive("c hs traffic", self.handshake_secret)
        server = self._derive("s hs traffic", self.handshake_secret)
        self.client_handshake = TrafficKeys(client, self.cipher_cls.key_size)
        self.server_handshake = TrafficKeys(server, self.cipher_cls.key_size)
        return self.client_handshake, self.server_handshake

    def derive_application(self):
        """After server Finished: application traffic keys.

        Note (paper Sec. 3.2): the handshake keys protecting the TCPLS
        EncryptedExtensions are *not* part of the context deriving the
        application keys -- the master secret hangs off the handshake
        secret, not off the handshake traffic secrets.
        """
        if self.handshake_secret is None:
            raise RuntimeError("derive_handshake must run first")
        derived = derive_secret(self.handshake_secret, b"derived", b"")
        self.master_secret = hkdf_extract(derived, b"\x00" * HASH_LEN)
        client = self._derive("c ap traffic", self.master_secret)
        server = self._derive("s ap traffic", self.master_secret)
        self.client_application = TrafficKeys(client,
                                              self.cipher_cls.key_size)
        self.server_application = TrafficKeys(server,
                                              self.cipher_cls.key_size)
        return self.client_application, self.server_application

    def finished_verify_data(self, traffic_secret):
        """Finished.verify_data = HMAC(finished_key, Transcript-Hash)."""
        finished_key = hkdf_expand_label(traffic_secret, b"finished", b"",
                                         HASH_LEN)
        return hmac.new(finished_key, self.transcript_hash(), HASH).digest()

    def _derive(self, label, secret):
        return hkdf_expand_label(secret, label.encode(),
                                 self.transcript_hash(), HASH_LEN)
