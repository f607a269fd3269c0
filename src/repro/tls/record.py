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
#: the length field of a record header
_LENGTH = struct.Struct("!3xH")

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
        view = memoryview(record)
        header = bytes(view[:RECORD_HEADER_SIZE])
        nonce = xor_nonce(self.iv, self.sequence)
        try:
            inner = self.cipher.open(nonce, view[RECORD_HEADER_SIZE:],
                                     aad=header)
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

    Feed each chunk of the stream as it arrives; every call returns the
    records the chunk completed.  This is where a tuned receive path
    matters (Sec. 5.1 discusses picotls losing 40% throughput to record
    fragmentation): a record that lies inside one chunk comes back as a
    :class:`memoryview` slice of that chunk, no byte moved.  Only a
    record a chunk boundary cuts is copied, once: its head into a small
    buffer when the boundary cuts it, its rest when the next chunk
    completes it.  A slice keeps its chunk alive, so a chunk that is
    not ``bytes`` is frozen into ``bytes`` first.
    """

    def __init__(self, max_record=MAX_RECORD_PAYLOAD + MAX_CIPHERTEXT_EXPANSION):
        #: the head of the one record the last chunk cut, and how many
        #: bytes it still lacks (up to the end of its header while the
        #: header is what was cut)
        self._buffer = bytearray()
        self._missing = 0
        #: whole records handed back by :meth:`hold`
        self._held = []
        self.max_record = max_record

    def hold(self, records):
        """Keep whole records back: the next :meth:`feed` returns them
        first, ahead of the records it cuts."""
        self._held.extend(records)

    def _too_long(self, length):
        return TlsRecordError("record length %d exceeds maximum %d"
                              % (length, self.max_record))

    def feed(self, data):
        """Cut ``data``, the next chunk of the stream; returns the list
        of records it completed, each a view."""
        records, self._held = self._held, []
        if type(data) is not bytes:
            data = bytes(data)
        view = memoryview(data)
        size = len(data)
        offset = 0
        buf = self._buffer
        while buf:
            # Finish the record the last chunk cut.
            missing = self._missing
            if missing > size - offset:
                buf += view[offset:]
                self._missing = missing - (size - offset)
                return records
            buf += view[offset:offset + missing]
            offset += missing
            if len(buf) == RECORD_HEADER_SIZE:
                # the header was what was cut: now its length is known
                (length,) = _LENGTH.unpack_from(buf)
                if length > self.max_record:
                    raise self._too_long(length)
                if length:
                    self._missing = length
                    continue
            records.append(memoryview(buf))
            self._buffer = buf = bytearray()
        max_record = self.max_record
        while size - offset >= RECORD_HEADER_SIZE:
            (length,) = _LENGTH.unpack_from(data, offset)
            if length > max_record:
                raise self._too_long(length)
            end = offset + RECORD_HEADER_SIZE + length
            if end > size:
                break
            records.append(view[offset:end])
            offset = end
        if offset < size:
            buf += view[offset:]
            self._missing = (end if size - offset >= RECORD_HEADER_SIZE
                             else offset + RECORD_HEADER_SIZE) - size
        return records

    @property
    def pending_bytes(self):
        return len(self._buffer)
