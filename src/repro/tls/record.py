"""TLS 1.3 record layer (RFC 8446 section 5).

Plaintext records carry the cleartext handshake flights; encrypted
records hide their true content type inside the AEAD payload
(``TLSInnerPlaintext = content || type || zeros``) under an outer type
of ``application_data``.  This content-type hiding is the property
TCPLS exploits: a TCPLS control record is indistinguishable on the wire
from TLS application data (Fig. 1 of the paper).
"""

import struct

from repro.crypto.aead import AeadAuthenticationError

CONTENT_CHANGE_CIPHER_SPEC = 20
CONTENT_ALERT = 21
CONTENT_HANDSHAKE = 22
CONTENT_APPLICATION_DATA = 23

LEGACY_RECORD_VERSION = 0x0303
RECORD_HEADER_SIZE = 5

#: RFC 8446: at most 2^14 bytes of plaintext per record.
MAX_RECORD_PAYLOAD = 16384
#: plaintext + content type byte + AEAD tag
MAX_CIPHERTEXT_EXPANSION = 256 + 1 + 16


class TlsError(ValueError):
    """Fatal handshake or record-layer failure, malformed handshake
    bytes included (a ``ValueError``, as the codecs raised before)."""


class TlsRecordError(TlsError):
    """Malformed or unauthenticatable record."""


def encode_record_header(content_type, length):
    return struct.pack("!BHH", content_type, LEGACY_RECORD_VERSION, length)


def encode_plaintext_record(content_type, payload):
    """A cleartext record (handshake flights before keys exist)."""
    if len(payload) > MAX_RECORD_PAYLOAD:
        raise TlsRecordError("record payload exceeds 2^14 bytes")
    return encode_record_header(content_type, len(payload)) + payload


def xor_nonce(iv, sequence):
    """Per-record nonce: static IV XOR 64-bit big-endian sequence."""
    seq_bytes = sequence.to_bytes(len(iv), "big")
    return bytes(a ^ b for a, b in zip(iv, seq_bytes))


class RecordEncryptor:
    """Protects records under one traffic key (cipher + IV + sequence),
    with RFC 8446's IV XOR seq nonce."""

    def __init__(self, cipher, iv):
        self.cipher = cipher
        self.iv = iv
        self.sequence = 0

    def protect(self, content_type, payload, padding=0):
        """Encrypt one record; returns the full wire bytes."""
        inner = payload + bytes([content_type]) + b"\x00" * padding
        if len(inner) > MAX_RECORD_PAYLOAD + 1 + padding:
            raise TlsRecordError("record payload exceeds 2^14 bytes")
        nonce = xor_nonce(self.iv, self.sequence)
        length = len(inner) + self.cipher.tag_size
        header = encode_record_header(CONTENT_APPLICATION_DATA, length)
        ciphertext = self.cipher.seal(nonce, inner, aad=header)
        self.sequence += 1
        return header + ciphertext


class RecordDecryptor:
    """Unprotects records under one traffic key."""

    def __init__(self, cipher, iv):
        self.cipher = cipher
        self.iv = iv
        self.sequence = 0
        self.forgery_attempts = 0

    def unprotect(self, record):
        """Decrypt one full record (header + ciphertext).

        Returns ``(content_type, plaintext)``; raises
        :class:`TlsRecordError` when authentication fails.
        """
        header, ciphertext = record[:RECORD_HEADER_SIZE], record[
            RECORD_HEADER_SIZE:]
        nonce = xor_nonce(self.iv, self.sequence)
        try:
            inner = self.cipher.open(nonce, ciphertext, aad=header)
        except AeadAuthenticationError as exc:
            self.forgery_attempts += 1
            raise TlsRecordError("record authentication failed") from exc
        self.sequence += 1
        return split_inner_plaintext(inner)


def split_inner_plaintext(inner):
    """Strip zero padding and the trailing content-type byte."""
    end = len(inner)
    while end > 0 and inner[end - 1] == 0:
        end -= 1
    if end == 0:
        raise TlsRecordError("record with no content type")
    return inner[end - 1], inner[:end - 1]


class RecordReassembler:
    """Cuts a TCP bytestream back into complete TLS records.

    Feed arbitrary byte chunks; iterate complete records.  This is where
    a tuned receive path matters (Sec. 5.1 discusses picotls losing 40%
    throughput to record fragmentation): the reassembler keeps one
    contiguous buffer and never copies completed records twice.
    """

    def __init__(self, max_record=MAX_RECORD_PAYLOAD + MAX_CIPHERTEXT_EXPANSION):
        self._buffer = bytearray()
        self.max_record = max_record
        self.records_out = 0

    def feed(self, data):
        """Buffer incoming bytes and return a list of complete records."""
        buf = self._buffer
        buf += data
        size = len(buf)
        records = []
        offset = 0
        while size - offset >= RECORD_HEADER_SIZE:
            content_type, _version, length = struct.unpack_from(
                "!BHH", buf, offset
            )
            if length > self.max_record:
                raise TlsRecordError(
                    "record length %d exceeds maximum %d"
                    % (length, self.max_record)
                )
            total = RECORD_HEADER_SIZE + length
            if size - offset < total:
                break
            records.append(bytes(buf[offset:offset + total]))
            offset += total
        if offset:
            del buf[:offset]
            self.records_out += len(records)
        return records

    @property
    def pending_bytes(self):
        return len(self._buffer)
