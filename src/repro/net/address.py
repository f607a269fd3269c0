"""IPv4/IPv6 addresses and transport endpoints.

TCPLS experiments are dual-stack (the paper joins an IPv6 connection to
a session opened over IPv4), so addresses carry an explicit family and
compare/hash by value.
"""

import ipaddress


class IPAddress:
    """An IPv4 or IPv6 address with a stable canonical form."""

    __slots__ = ("_addr", "_text", "_hash", "family")

    def __init__(self, text):
        if isinstance(text, IPAddress):
            self._addr = text._addr
            self._text = text._text
        else:
            self._addr = ipaddress.ip_address(text)
            self._text = None
        # Addresses key the per-packet tables (connections, routes,
        # local addresses); the stdlib hash is a Python-level method
        # that formats the address on every call.
        self._hash = hash(self._addr)
        #: 4 or 6.  A plain attribute, not a property: the per-packet
        #: header-size lookup reads it on every wire_size() call.
        self.family = self._addr.version

    @property
    def is_v4(self):
        return self._addr.version == 4

    @property
    def is_v6(self):
        return self._addr.version == 6

    def packed(self):
        """Network-order byte representation (4 or 16 bytes)."""
        return self._addr.packed

    @classmethod
    def from_packed(cls, data):
        """Inverse of :meth:`packed`."""
        if len(data) not in (4, 16):
            raise ValueError("packed address must be 4 or 16 bytes")
        return cls(str(ipaddress.ip_address(data)))

    def __eq__(self, other):
        if other is self:
            return True
        if isinstance(other, str):
            other = IPAddress(other)
        if not isinstance(other, IPAddress):
            return NotImplemented
        return self._addr == other._addr

    def __hash__(self):
        return self._hash

    def __str__(self):
        # Cached: ipaddress re-renders every time, which for IPv6
        # means hextet compression per call.
        text = self._text
        if text is None:
            text = self._text = str(self._addr)
        return text

    def __repr__(self):
        return "IPAddress(%r)" % str(self)


class Endpoint:
    """A transport endpoint: (IP address, port)."""

    __slots__ = ("addr", "port")

    def __init__(self, addr, port):
        self.addr = addr if isinstance(addr, IPAddress) else IPAddress(addr)
        if not 0 <= port <= 0xFFFF:
            raise ValueError("port out of range: %r" % port)
        self.port = port

    @property
    def family(self):
        return self.addr.family

    def __eq__(self, other):
        if not isinstance(other, Endpoint):
            return NotImplemented
        return self.addr == other.addr and self.port == other.port

    def __hash__(self):
        return hash((self.addr, self.port))

    def __str__(self):
        if self.addr.is_v6:
            return "[%s]:%d" % (self.addr, self.port)
        return "%s:%d" % (self.addr, self.port)

    def __repr__(self):
        return "Endpoint(%r, %d)" % (str(self.addr), self.port)


def ip_header_size(family):
    """Bytes of IP header for the given family (no options)."""
    return 20 if family == 4 else 40
