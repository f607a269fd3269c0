"""TLS 1.3 handshake messages with byte-exact framing.

Each message encodes as ``msg_type(u8) || length(u24) || body`` and is
hashed into the transcript in this serialized form (RFC 8446 4.4.1).
The subset implemented is what the PSK + FFDHE handshake needs:
ClientHello, ServerHello, EncryptedExtensions, Finished.  A decoder
raises :class:`~repro.tls.record.TlsError` on truncated or malformed
bytes, never anything else.
"""

import struct

from repro.tls.extensions import (
    decode_extensions,
    encode_extensions,
    find_extension,
)
from repro.tls.record import TlsError

HS_CLIENT_HELLO = 1
HS_SERVER_HELLO = 2
HS_ENCRYPTED_EXTENSIONS = 8
HS_FINISHED = 20

TLS13_VERSION = 0x0304
LEGACY_VERSION = 0x0303

#: IANA cipher suite ids implemented by :mod:`repro.crypto`.
TLS_AES_128_GCM_SHA256 = 0x1301
TLS_CHACHA20_POLY1305_SHA256 = 0x1303
#: private-use suite id for the simulation null-tag cipher
TLS_NULL_TAG_SHA256 = 0xFF01

CIPHER_SUITE_NAMES = {
    TLS_AES_128_GCM_SHA256: "aes128gcm",
    TLS_CHACHA20_POLY1305_SHA256: "chacha20poly1305",
    TLS_NULL_TAG_SHA256: "null-tag",
}
CIPHER_SUITE_IDS = {name: suite for suite, name in CIPHER_SUITE_NAMES.items()}


def _frame(msg_type, body):
    return struct.pack("!B", msg_type) + len(body).to_bytes(3, "big") + body


def parse_handshake_messages(data):
    """Split a handshake byte stream into (msg_type, body, raw) tuples.

    Returns (messages, leftover_bytes) -- handshake messages may span
    TLS records, so callers buffer the leftover.
    """
    messages = []
    offset = 0
    while offset + 4 <= len(data):
        msg_type = data[offset]
        length = int.from_bytes(data[offset + 1:offset + 4], "big")
        end = offset + 4 + length
        if end > len(data):
            break
        messages.append((msg_type, data[offset + 4:end], data[offset:end]))
        offset = end
    return messages, data[offset:]


class ClientHello:
    """ClientHello: random, cipher suites, extensions."""

    msg_type = HS_CLIENT_HELLO

    def __init__(self, random, cipher_suites, extensions, session_id=b""):
        self.random = random
        self.cipher_suites = list(cipher_suites)
        self.extensions = list(extensions)
        self.session_id = session_id

    def encode(self):
        body = struct.pack("!H", LEGACY_VERSION)
        body += self.random
        body += bytes([len(self.session_id)]) + self.session_id
        body += struct.pack("!H", len(self.cipher_suites) * 2)
        for suite in self.cipher_suites:
            body += struct.pack("!H", suite)
        body += b"\x01\x00"  # legacy compression: null only
        body += encode_extensions(self.extensions)
        return _frame(self.msg_type, body)

    @classmethod
    def decode(cls, body):
        try:
            (version,) = struct.unpack_from("!H", body, 0)
            if version != LEGACY_VERSION:
                raise TlsError("unexpected legacy_version 0x%04x" % version)
            random = body[2:34]
            offset = 34
            sid_len = body[offset]
            offset += 1
            session_id = body[offset:offset + sid_len]
            offset += sid_len
            (suites_len,) = struct.unpack_from("!H", body, offset)
            offset += 2
            cipher_suites = [
                struct.unpack_from("!H", body, offset + i)[0]
                for i in range(0, suites_len, 2)
            ]
            offset += suites_len
            comp_len = body[offset]
        except (IndexError, struct.error):
            raise TlsError("truncated ClientHello") from None
        offset += 1 + comp_len
        extensions, _ = decode_extensions(body, offset)
        return cls(random, cipher_suites, extensions, session_id)

    def find_extension(self, ext_type):
        return find_extension(self.extensions, ext_type)


class ServerHello:
    """ServerHello: random, selected suite, extensions."""

    msg_type = HS_SERVER_HELLO

    def __init__(self, random, cipher_suite, extensions, session_id=b""):
        self.random = random
        self.cipher_suite = cipher_suite
        self.extensions = list(extensions)
        self.session_id = session_id

    def encode(self):
        body = struct.pack("!H", LEGACY_VERSION)
        body += self.random
        body += bytes([len(self.session_id)]) + self.session_id
        body += struct.pack("!H", self.cipher_suite)
        body += b"\x00"  # legacy compression
        body += encode_extensions(self.extensions)
        return _frame(self.msg_type, body)

    @classmethod
    def decode(cls, body):
        try:
            random = body[2:34]
            offset = 34
            sid_len = body[offset]
            offset += 1
            session_id = body[offset:offset + sid_len]
            offset += sid_len
            (cipher_suite,) = struct.unpack_from("!H", body, offset)
        except (IndexError, struct.error):
            raise TlsError("truncated ServerHello") from None
        offset += 3  # suite + compression byte
        extensions, _ = decode_extensions(body, offset)
        return cls(random, cipher_suite, extensions, session_id)

    def find_extension(self, ext_type):
        return find_extension(self.extensions, ext_type)


class EncryptedExtensions:
    """Extensions protected under the handshake traffic keys.

    This is where the server places its TCPLS answers (TCPLS Hello echo,
    SESSID, COOKIE list, address advertisement) -- encrypted, and part
    of the transcript, so middleboxes can neither read nor strip them
    without breaking the handshake (Sec. 3.2 of the paper).
    """

    msg_type = HS_ENCRYPTED_EXTENSIONS

    def __init__(self, extensions):
        self.extensions = list(extensions)

    def encode(self):
        return _frame(self.msg_type, encode_extensions(self.extensions))

    @classmethod
    def decode(cls, body):
        extensions, _ = decode_extensions(body, 0)
        return cls(extensions)

    def find_extension(self, ext_type):
        return find_extension(self.extensions, ext_type)


class Finished:
    """HMAC over the transcript hash with the finished key."""

    msg_type = HS_FINISHED

    def __init__(self, verify_data):
        self.verify_data = verify_data

    def encode(self):
        return _frame(self.msg_type, self.verify_data)

    @classmethod
    def decode(cls, body):
        return cls(body)
