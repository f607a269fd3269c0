"""TLS extension codec, including the TCPLS handshake extensions.

Extensions are ``type(u16) || length(u16) || data`` concatenations
inside a length-prefixed vector (RFC 8446 section 4.2).  TCPLS claims
identifiers from the private-use range (0xFA00+) for the messages of
Sec. 3 of the paper: TCPLS Hello, TCPLS Join, SESSID, COOKIE and the
server's address advertisement.  Every decoder raises
:class:`~repro.tls.record.TlsError` on truncated or malformed bytes.
"""

import struct

from repro.tls.record import TlsError

# Standard TLS 1.3 extensions used by the handshake.
EXT_SERVER_NAME = 0
EXT_SUPPORTED_GROUPS = 10
EXT_SUPPORTED_VERSIONS = 43
EXT_PSK_KEY_EXCHANGE_MODES = 45
EXT_KEY_SHARE = 51
EXT_PRE_SHARED_KEY = 41
EXT_EARLY_DATA = 42

# TCPLS extensions (private-use identifiers).
EXT_TCPLS_HELLO = 0xFA01      #: client offers / server confirms TCPLS
EXT_TCPLS_JOIN = 0xFA02       #: joining CH: SESSID + one cookie
EXT_TCPLS_SESSID = 0xFA03     #: server-assigned session identifier
EXT_COOKIE_TCPLS = 0xFA04     #: server-issued single-use join cookies
EXT_TCPLS_ADDRESSES = 0xFA05  #: server address advertisement
#: Sec. 3.4 unlinkable joins: a single-use token acting as both the
#: session identifier and the cookie, so no value repeats on the wire
#: across the connections of one session.
EXT_TCPLS_TOKEN = 0xFA06
EXT_TCPLS_TOKENS = 0xFA07     #: server-issued token batch (in EE)


class Extension:
    """One TLS extension."""

    __slots__ = ("ext_type", "data")

    def __init__(self, ext_type, data=b""):
        self.ext_type = ext_type
        self.data = bytes(data)

    def encode(self):
        return struct.pack("!HH", self.ext_type, len(self.data)) + self.data

    def __eq__(self, other):
        return (
            isinstance(other, Extension)
            and self.ext_type == other.ext_type
            and self.data == other.data
        )

    def __repr__(self):
        return "Extension(0x%04x, %d B)" % (self.ext_type, len(self.data))


def encode_extensions(extensions):
    """Length-prefixed extension vector."""
    body = b"".join(e.encode() for e in extensions)
    return struct.pack("!H", len(body)) + body


def decode_extensions(data, offset=0):
    """Decode a vector; returns (list, new_offset)."""
    if offset + 2 > len(data):
        raise TlsError("truncated extension vector length")
    (total,) = struct.unpack_from("!H", data, offset)
    offset += 2
    end = offset + total
    if end > len(data):
        raise TlsError("extension vector exceeds message")
    extensions = []
    while offset < end:
        if offset + 4 > end:
            raise TlsError("truncated extension header")
        ext_type, length = struct.unpack_from("!HH", data, offset)
        offset += 4
        if offset + length > end:
            raise TlsError("extension data exceeds vector")
        extensions.append(Extension(ext_type, data[offset:offset + length]))
        offset += length
    return extensions, end


def find_extension(extensions, ext_type):
    """First extension of the given type, or None."""
    for extension in extensions:
        if extension.ext_type == ext_type:
            return extension
    return None


# -- TCPLS extension payload codecs --------------------------------------


def encode_tcpls_join(session_id, cookie):
    """TCPLS Join: 16-byte SESSID + 16-byte single-use cookie."""
    if len(session_id) != 16 or len(cookie) != 16:
        raise ValueError("SESSID and cookie are 16 bytes each")
    return session_id + cookie


def decode_tcpls_join(data):
    if len(data) != 32:
        raise TlsError("malformed TCPLS Join extension")
    return data[:16], data[16:]


def encode_cookie_list(cookies):
    """Vector of 16-byte cookies."""
    for cookie in cookies:
        if len(cookie) != 16:
            raise ValueError("cookies are 16 bytes")
    return struct.pack("!H", len(cookies) * 16) + b"".join(cookies)


def decode_cookie_list(data):
    if len(data) < 2:
        raise TlsError("truncated cookie list")
    (total,) = struct.unpack_from("!H", data, 0)
    if total % 16 or 2 + total != len(data):
        raise TlsError("malformed cookie list")
    return [data[2 + i:2 + i + 16] for i in range(0, total, 16)]


def encode_address_list(addresses):
    """Server address advertisement: family(1) + packed address each."""
    out = bytearray()
    for address in addresses:
        packed = address.packed()
        out.append(4 if len(packed) == 4 else 6)
        out += packed
    return bytes(out)


def decode_address_list(data):
    from repro.net.address import IPAddress

    addresses = []
    offset = 0
    while offset < len(data):
        family = data[offset]
        offset += 1
        size = 4 if family == 4 else 16
        if family not in (4, 6) or offset + size > len(data):
            raise TlsError("malformed address list")
        addresses.append(IPAddress.from_packed(data[offset:offset + size]))
        offset += size
    return addresses
