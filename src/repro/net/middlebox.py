"""On-path middleboxes.

These model the interference classes of Sec. 2 of the paper: NATs that
rewrite addresses/ports, firewalls that strip unknown TCP options or
drop flows without state, boxes that inject RSTs or blackhole traffic,
and high-speed adapters that resegment large packets.  Middleboxes are
attached to links and run between serialization and delivery.

Middleboxes operate on real segment objects and real payload bytes, so
anything conveyed in the TCP payload (TLS records, hence everything
TCPLS does) is invisible to them unless they terminate the connection.
That property is exactly what the paper exploits.
"""


class Middlebox:
    """Base class: ``process`` may return the packet (possibly mutated),
    a replacement packet, or None to drop."""

    def __init__(self, name=""):
        self.name = name
        self.link = None
        self.processed = 0
        self.dropped = 0

    def attach(self, link):
        self.link = link

    def process(self, packet):
        self.processed += 1
        return packet

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.name)


class Blackhole(Middlebox):
    """Silently drops everything while active.

    Used for the outage experiments (Figs. 8 and 9): a path failure that
    produces no explicit signal, only silence.
    """

    def __init__(self, name="", active=False):
        super().__init__(name)
        self.active = active

    def activate(self):
        self.active = True

    def deactivate(self):
        self.active = False

    def schedule_outage(self, sim, start, end=None):
        """Blackhole the link during ``[start, end)`` simulated seconds."""
        sim.at(start, self.activate)
        if end is not None:
            sim.at(end, self.deactivate)

    def process(self, packet):
        self.processed += 1
        if self.active:
            self.dropped += 1
            return None
        return packet


class RstInjector(Middlebox):
    """Drops matching packets and injects a spurious TCP RST downstream.

    Models the "firewall introducing TCP RST" outage of Fig. 8: the
    receiver sees an explicit RST for the connection and can react
    immediately, unlike a blackhole.
    """

    def __init__(self, name="", active=False, match=None):
        super().__init__(name)
        self.active = active
        self.match = match
        self.injected = 0

    def activate(self):
        self.active = True

    def deactivate(self):
        self.active = False

    def schedule_rst(self, sim, at_time):
        """Inject an RST into the first matching packet after ``at_time``."""
        sim.at(at_time, self.activate)

    def process(self, packet):
        self.processed += 1
        if not self.active or packet.proto != "tcp":
            return packet
        seg = packet.payload
        if self.match is not None and not self.match(packet):
            return packet
        from repro.tcp.segment import Segment

        rst = Segment(
            src_port=seg.src_port,
            dst_port=seg.dst_port,
            seq=seg.seq,
            ack=0,
            flags=frozenset({"RST"}),
            window=0,
        )
        packet.payload = rst
        self.injected += 1
        self.active = False  # one-shot; re-arm via schedule_rst
        return packet


class OptionStrippingFirewall(Middlebox):
    """Removes TCP options whose kind is not in the allowlist.

    This is interference class (iii)/(iv) of Sec. 2 and the reason MPTCP
    needs fallback machinery: its control channel lives in options.
    TCPLS control data lives in the payload and sails through.
    """

    #: kinds every middlebox predates: EOL, NOP, MSS, WScale, SACKperm, TS
    DEFAULT_ALLOWED = frozenset({0, 1, 2, 3, 4, 5, 8})

    def __init__(self, name="", allowed_kinds=None):
        super().__init__(name)
        self.allowed_kinds = (
            frozenset(allowed_kinds) if allowed_kinds is not None
            else self.DEFAULT_ALLOWED
        )
        self.stripped = 0

    def process(self, packet):
        self.processed += 1
        if packet.proto != "tcp":
            return packet
        seg = packet.payload
        kept = [o for o in seg.options if o.kind in self.allowed_kinds]
        if len(kept) != len(seg.options):
            self.stripped += len(seg.options) - len(kept)
            packet.payload = seg.replace(options=tuple(kept))
        return packet


class StatefulFirewall(Middlebox):
    """Allows flows that start with a SYN; drops out-of-state packets.

    Optionally injects RSTs into flows idle longer than ``idle_timeout``
    (the paper's motivating example for Failover on long-lived
    connections).
    """

    def __init__(self, name="", idle_timeout=None, sim=None):
        super().__init__(name)
        self.idle_timeout = idle_timeout
        self.sim = sim
        self._flows = {}

    def _key(self, packet):
        seg = packet.payload
        return (str(packet.src), seg.src_port, str(packet.dst), seg.dst_port)

    def process(self, packet):
        self.processed += 1
        if packet.proto != "tcp":
            return packet
        seg = packet.payload
        key = self._key(packet)
        rkey = (key[2], key[3], key[0], key[1])
        now = self.sim.now if self.sim is not None else 0.0
        if "SYN" in seg.flags:
            self._flows[key] = now
            self._flows[rkey] = now
            return packet
        last = self._flows.get(key)
        if last is None:
            self.dropped += 1
            return None
        if self.idle_timeout is not None and now - last > self.idle_timeout:
            del self._flows[key]
            self._flows.pop(rkey, None)
            from repro.tcp.segment import Segment

            packet.payload = Segment(
                src_port=seg.src_port,
                dst_port=seg.dst_port,
                seq=seg.seq,
                ack=0,
                flags=frozenset({"RST"}),
                window=0,
            )
            return packet
        self._flows[key] = now
        self._flows[rkey] = now
        return packet


class NAT:
    """Source NAT: rewrites (addr, port) on the way out and back.

    Instantiate once, then attach :attr:`outbound` to the
    client-to-server link and :attr:`inbound` to the reverse link; the
    two halves share the translation table.
    """

    def __init__(self, public_address, name="nat", port_base=40000):
        self.public_address = public_address
        self.name = name
        self._next_port = port_base
        self._out_map = {}
        self._in_map = {}
        self.outbound = _NatHalf(self, outbound=True, name=name + "-out")
        self.inbound = _NatHalf(self, outbound=False, name=name + "-in")

    def translate_out(self, packet):
        seg = packet.payload
        key = (packet.src, seg.src_port)
        if key not in self._out_map:
            public = (self.public_address, self._next_port)
            self._next_port += 1
            self._out_map[key] = public
            self._in_map[public] = key
        pub_addr, pub_port = self._out_map[key]
        packet.src = pub_addr
        packet.payload = seg.replace(src_port=pub_port)
        return packet

    def translate_in(self, packet):
        seg = packet.payload
        key = (packet.dst, seg.dst_port)
        orig = self._in_map.get(key)
        if orig is None:
            return None  # unsolicited inbound: drop, like any NAT
        packet.dst = orig[0]
        packet.payload = seg.replace(dst_port=orig[1])
        return packet


class _NatHalf(Middlebox):
    def __init__(self, nat, outbound, name):
        super().__init__(name)
        self.nat = nat
        self.outbound = outbound

    def process(self, packet):
        self.processed += 1
        if packet.proto != "tcp":
            return packet
        if self.outbound:
            return self.nat.translate_out(packet)
        result = self.nat.translate_in(packet)
        if result is None:
            self.dropped += 1
        return result


class Resegmenter(Middlebox):
    """Splits large TCP payloads into ``chunk`` -byte segments.

    Models interference class (vi): offload engines that fragment and
    reassemble TCP packets, which breaks protocols assuming segment
    boundaries survive the path.  TCPLS records are reassembled from the
    bytestream, so they are immune; the middlebox tests assert that.
    """

    def __init__(self, name="", chunk=536):
        super().__init__(name)
        self.chunk = chunk
        self.split = 0

    def process(self, packet):
        self.processed += 1
        if packet.proto != "tcp":
            return packet
        seg = packet.payload
        if len(seg.payload) <= self.chunk:
            return packet
        self.split += 1
        offset = self.chunk
        while offset < len(seg.payload):
            piece = seg.replace(
                seq=(seg.seq + offset) & 0xFFFFFFFF,
                payload=seg.payload[offset:offset + self.chunk],
                flags=seg.flags - {"FIN"} if offset + self.chunk < len(
                    seg.payload) else seg.flags,
            )
            extra = packet.copy()
            extra.payload = piece
            self.link.inject(extra)
            offset += self.chunk
        packet.payload = seg.replace(payload=seg.payload[: self.chunk],
                                     flags=seg.flags - {"FIN"})
        return packet


class PacketLogger(Middlebox):
    """Records (time, packet repr, size) for debugging and traces."""

    def __init__(self, sim, name=""):
        super().__init__(name)
        self.sim = sim
        self.records = []

    def process(self, packet):
        self.processed += 1
        self.records.append((self.sim.now, repr(packet), packet.wire_size()))
        return packet
