"""Per-host TCP stack: demultiplexing, listeners, port allocation, TFO.

One :class:`TcpStack` is registered on each :class:`repro.net.Host`
under the ``"tcp"`` protocol.  It owns every connection terminating at
that host and hands inbound segments to the right state machine by
(local addr, local port, remote addr, remote port).
"""

import hashlib

from repro.net.address import Endpoint, ip_header_size
from repro.net.packet import Packet
from repro.tcp.connection import TcpConnection
from repro.tcp.segment import Segment

EPHEMERAL_PORT_BASE = 49152


class Listener:
    """A passive socket: accepts SYNs on a port."""

    def __init__(self, port, on_accept, cc="cubic"):
        self.port = port
        self.on_accept = on_accept
        self.cc = cc
        self.accepted = 0


class TcpStack:
    """Host-wide TCP state."""

    def __init__(self, sim, host, tfo_enabled=False):
        self.sim = sim
        self.host = host
        self.tfo_enabled = tfo_enabled
        self._connections = {}
        self._listeners = {}
        self._next_port = EPHEMERAL_PORT_BASE
        self._tfo_secret = hashlib.sha256(host.name.encode()).digest()
        self._tfo_client_cookies = {}
        host.register_stack("tcp", self)

    # -- API -------------------------------------------------------------

    def listen(self, port, on_accept, cc=None):
        """Accept connections on ``port``.

        ``on_accept(conn)`` runs when a SYN arrives, *before* the
        SYN-ACK is emitted, so the acceptor can attach callbacks (and
        TFO payload is delivered through them).
        """
        if port in self._listeners:
            raise ValueError("port %d already listening" % port)
        listener = Listener(port, on_accept, cc or "cubic")
        self._listeners[port] = listener
        return listener

    def connect(self, local_addr, remote, local_port=None, cc=None,
                tfo_data=b""):
        """Active open from ``local_addr`` to ``remote`` Endpoint.

        Binding the local address pins the connection to the owning
        interface/path -- this is how TCPLS opens one TCP connection per
        network path.
        """
        if local_port is None:
            local_port = self._allocate_port()
        local = Endpoint(local_addr, local_port)
        conn = TcpConnection(self, local, remote, cc=cc or "cubic")
        self._register(conn)
        conn.connect(tfo_data=tfo_data)
        return conn

    def connections(self):
        return list(self._connections.values())

    # -- TFO cookies -------------------------------------------------------

    def tfo_make_cookie(self, client_addr):
        digest = hashlib.sha256(
            self._tfo_secret + client_addr.packed()
        ).digest()
        return digest[:8]

    def tfo_cookie_valid(self, client_addr, cookie):
        return cookie == self.tfo_make_cookie(client_addr)

    def tfo_store_cookie(self, server_addr, cookie):
        self._tfo_client_cookies[server_addr] = cookie

    def tfo_cookie_for(self, server_addr):
        return self._tfo_client_cookies.get(server_addr, b"")

    # -- plumbing ---------------------------------------------------------

    def mss_for(self, local, remote):
        """MSS derived from the egress link MTU."""
        iface = self.host.route(remote.addr, local.addr)
        mtu = 1500
        if iface is not None and iface.tx_link is not None:
            mtu = iface.tx_link.mtu
        return mtu - ip_header_size(remote.addr.family) - 20

    def _allocate_port(self):
        """Pick a free ephemeral port, wrapping within the IANA dynamic
        range and skipping ports still used by live connections."""
        in_use = {key[1] for key in self._connections}
        total = 65536 - EPHEMERAL_PORT_BASE
        for _ in range(total):
            port = self._next_port
            self._next_port += 1
            if self._next_port > 65535:
                self._next_port = EPHEMERAL_PORT_BASE
            if port not in in_use and port not in self._listeners:
                return port
        raise OSError("ephemeral port range exhausted")

    @staticmethod
    def _key(conn):
        """Connection-table key: the address objects themselves
        (:class:`~repro.net.address.IPAddress` hashes and compares by
        value), so a lookup renders no text."""
        return (conn.local.addr, conn.local.port, conn.remote.addr,
                conn.remote.port)

    def _register(self, conn):
        self._connections[self._key(conn)] = conn

    def forget(self, conn):
        self._connections.pop(self._key(conn), None)

    def receive(self, packet):
        """Demultiplex one inbound packet: to its connection's
        ``receive_segment``, else to a listener (SYN), else a RST."""
        segment = packet.payload
        conn = self._connections.get(
            (packet.dst, segment.dst_port, packet.src, segment.src_port))
        if conn is not None:
            conn.receive_segment(segment, packet)
            return
        if segment.is_rst:
            return
        listener = self._listeners.get(segment.dst_port)
        if listener is not None and segment.is_syn and not segment.is_ack:
            local = Endpoint(packet.dst, segment.dst_port)
            remote = Endpoint(packet.src, segment.src_port)
            conn = TcpConnection(self, local, remote, passive=True,
                                 cc=listener.cc)
            self._register(conn)
            listener.accepted += 1
            listener.on_accept(conn)
            conn.accept_syn(segment, packet)
            return
        self._send_rst_for(packet, segment)

    def _send_rst_for(self, packet, segment):
        """Refuse a segment for which no socket exists."""
        if segment.is_ack:
            seq, ack, flags = segment.ack, 0, {"RST"}
        else:
            seq, ack, flags = 0, segment.end_seq, {"RST", "ACK"}
        rst = Segment(
            src_port=segment.dst_port,
            dst_port=segment.src_port,
            seq=seq,
            ack=ack,
            flags=frozenset(flags),
            window=0,
        )
        self.host.send(Packet(packet.dst, packet.src, "tcp", rst))
