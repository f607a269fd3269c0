"""Network-layer packets.

A :class:`Packet` carries one transport PDU (a TCP segment or a UDP
datagram) between hosts.  Payloads are real byte strings produced by
the transport codecs, so middleboxes can parse and mutate them exactly
as on-path equipment would.
"""

PROTO_TCP = "tcp"
PROTO_UDP = "udp"


class Packet:
    """One IP packet in flight.

    Parameters
    ----------
    src, dst:
        Source/destination :class:`~repro.net.address.IPAddress`.
    proto:
        ``"tcp"`` or ``"udp"``.
    payload:
        Transport PDU.  For TCP this is a :class:`repro.tcp.segment.Segment`;
        for UDP a :class:`repro.baselines.quic.udp.Datagram`-like object.
        The payload must expose ``wire_size()`` returning its byte length
        on the wire (headers + data).
    """

    __slots__ = ("src", "dst", "proto", "payload", "ttl", "_sized",
                 "_size")

    def __init__(self, src, dst, proto, payload, ttl=64):
        self.src = src
        self.dst = dst
        self.proto = proto
        self.payload = payload
        self.ttl = ttl
        self._sized = None

    def wire_size(self):
        """Total bytes on the wire: IP header + transport PDU."""
        # Asked at admission and again at delivery; PDUs are value
        # objects, so the answer holds until a middlebox or fault swaps
        # ``payload`` for another object.
        payload = self.payload
        if payload is not self._sized:
            self._size = (20 if self.src.family == 4 else 40) + \
                payload.wire_size()
            self._sized = payload
        return self._size

    @property
    def family(self):
        return self.src.family

    def copy(self):
        """Shallow copy (payload shared) used by duplicating middleboxes."""
        return Packet(self.src, self.dst, self.proto, self.payload, self.ttl)

    def __repr__(self):
        return "Packet(%s -> %s, %s, %d B)" % (
            self.src,
            self.dst,
            self.proto,
            self.wire_size(),
        )
