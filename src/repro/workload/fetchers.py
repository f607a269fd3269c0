"""Stack-specific page fetchers: TCPLS, QUIC and MPTCP backends.

A fetcher adapts one transport stack to the workload layer's two
contact points: a pool ``factory(host) -> handle`` producing
connections the :class:`~repro.workload.pool.ConnectionPool` manages,
and a ``fetch(entry, transfer, done)`` callable the
:class:`~repro.workload.transfers.TransferManager` invokes per object.
All three speak the repo's sized-request protocol (a 32-byte
``R``-padded request; the peer answers with that many zero bytes), so
page loads across stacks move byte-identical application payloads:

- **TCPLS** (:class:`TcplsPageFetcher`): ONE session spanning
  ``n_paths`` TCP connections (MPJOIN); each pooled handle is one of
  the session's connections, each transfer rides its own TCPLS stream,
  so ``assign_transfer`` literally picks the *path* per object -- the
  paper's application-level stream steering (Sec. 3.3.3).
- **QUIC** (:class:`QuicPageFetcher`): a browser-style pool of
  independent single-path QUIC connections; responses come back on
  server-initiated streams tagged with the request's stream id.
- **MPTCP** (:class:`MptcpPageFetcher`): one byte stream per
  connection (HTTP/1.1-style, capacity 1), multipath below the
  application but serial above it -- the reuse-vs-new pool accounting
  does the most work here.

Handles expose ``srtt()`` / ``cwnd()`` / ``backlog_bytes()`` off their
live transport state, which is exactly what
:class:`~repro.core.engine.policy.PredictivePolicy` feeds its
forked-clock estimator.
"""

import struct

from repro.net.address import Endpoint
from repro.tcp import TcpStack
from repro.workload.pool import ConnectionPool

__all__ = [
    "MptcpPageFetcher",
    "QuicPageFetcher",
    "TcplsPageFetcher",
    "WORKLOAD_PSK",
]

WORKLOAD_PSK = b"workload-psk"

#: response header on QUIC server streams: (request stream id, size)
_QUIC_RSP = struct.Struct("!II")


def _request(nbytes):
    """The repo-wide sized request: 'R' + zero-padded response size."""
    return b"R%031d" % nbytes


# -- TCPLS -----------------------------------------------------------------


class _TcplsPathHandle:
    """One TCPLS connection (= one network path) of the shared session."""

    __slots__ = ("conn",)

    def __init__(self, conn):
        self.conn = conn

    def srtt(self):
        value = self.conn.tcp.tcp_info().get("srtt")
        return value if value is not None else float("inf")

    def cwnd(self):
        return float(self.conn.tcp.congestion_window())

    def backlog_bytes(self):
        tcp = self.conn.tcp
        return float(tcp.unsent_bytes() + tcp.bytes_in_flight())


class TcplsPageFetcher:
    """Pages over one TCPLS session joined across ``n_paths`` paths.

    The pool's connections ARE the session's TCP connections, so the
    policy's ``assign_transfer`` decision steers each object onto a
    path; each transfer is its own TCPLS stream on that path.
    """

    capacity = 8          # streams multiplex on one connection

    def __init__(self, sim, topo, n_paths=2, psk=WORKLOAD_PSK, port=443,
                 record_payload=4096, capacity=None):
        self.sim = sim
        self.topo = topo
        self.n_paths = n_paths
        self.port = port
        if capacity is not None:
            self.capacity = capacity
        self.max_per_host = n_paths
        from repro.core import TcplsClient, TcplsServer

        self._cstack = TcpStack(sim, topo.client)
        self._sstack = TcpStack(sim, topo.server)
        self.server = TcplsServer(sim, self._sstack, port, psk=psk,
                                  record_payload=record_payload)
        self.server.on_session = self._serve
        self.client = TcplsClient(sim, self._cstack, psk=psk,
                                  record_payload=record_payload)
        self.client.on_stream_data = self._on_stream_data
        self._pending = {}     # stream_id -> [transfer, done, received]
        self._available = []   # established conns not yet handed out

    # -- establishment ---------------------------------------------------

    def connect(self, on_ready):
        """Connect path 0, MPJOIN the rest; ``on_ready`` fires once the
        whole session is up (page-load clocks start *after* session
        establishment, like a browser with a warm connection)."""
        from repro.core import SessionEvent

        joined = {"count": 1}

        def maybe_ready():
            if joined["count"] == self.n_paths:
                self._available = list(self.client.conns)
                on_ready()

        def on_join(_conn):
            joined["count"] += 1
            maybe_ready()

        def on_client_ready(_session):
            for i in range(1, self.n_paths):
                self.client.join(self.topo.path(i).client_addr)
            maybe_ready()

        self.client.on_ready = on_client_ready
        self.client.subscribe(SessionEvent.JOIN, on_join)
        p0 = self.topo.path(0)
        self.client.connect(p0.client_addr, Endpoint(p0.server_addr,
                                                     self.port))

    # -- pool factory ----------------------------------------------------

    def pool(self, bus=None, idle_timeout=30.0):
        return ConnectionPool(
            self.sim, self._factory, max_per_host=self.max_per_host,
            capacity=self.capacity, idle_timeout=idle_timeout, bus=bus,
        )

    def _factory(self, _host):
        if not self._available:
            raise ValueError("all session connections already pooled")
        return _TcplsPathHandle(self._available.pop(0))

    # -- transfers -------------------------------------------------------

    def fetch(self, entry, transfer, done):
        stream = self.client.create_stream(entry.handle.conn)
        self._pending[stream.stream_id] = [transfer, done, 0]
        stream.send(_request(transfer.size))
        stream.close()

    def _on_stream_data(self, stream):
        record = self._pending.get(stream.stream_id)
        if record is None:
            return
        record[2] += len(stream.recv())
        if record[2] >= record[0].size:
            del self._pending[stream.stream_id]
            record[1]()

    # -- server side -----------------------------------------------------

    def _serve(self, session):
        requests = {}

        def on_stream_data(stream):
            buf = requests.get(stream.stream_id, b"")
            if buf is None:
                return
            buf += stream.recv()
            if len(buf) >= 32:
                requests[stream.stream_id] = None     # answered
                stream.send(b"\x00" * int(buf[1:32]))
                stream.close()
            else:
                requests[stream.stream_id] = buf

        session.on_stream_data = on_stream_data


# -- QUIC ------------------------------------------------------------------


class _QuicHandle:
    """One pooled QUIC connection; queues transfers until established."""

    __slots__ = ("conn", "pending", "queue")

    def __init__(self, conn):
        self.conn = conn
        self.pending = {}      # request stream id -> (transfer, done)
        self.queue = []        # transfers parked behind the handshake
        conn.on_established = self._flush
        conn.on_stream_data = self._on_stream_data
        conn.start()

    def fetch(self, transfer, done):
        if not self.conn.established:
            self.queue.append((transfer, done))
            return
        self._send(transfer, done)

    def _flush(self, _conn):
        while self.queue:
            transfer, done = self.queue.pop(0)
            self._send(transfer, done)

    def _send(self, transfer, done):
        sid = self.conn.open_stream()
        self.pending[sid] = (transfer, done)
        self.conn.stream_send(sid, _request(transfer.size), fin=True)

    def _on_stream_data(self, _conn, _sid, recv_stream):
        buf = recv_stream.buffer
        if len(buf) < _QUIC_RSP.size:
            return
        request_sid, size = _QUIC_RSP.unpack(bytes(buf[:_QUIC_RSP.size]))
        if len(buf) < _QUIC_RSP.size + size:
            return
        record = self.pending.pop(request_sid, None)
        if record is not None:
            record[1]()

    # transport stats for predictive policies
    def srtt(self):
        value = self.conn.rtt.srtt
        return value if value is not None else float("inf")

    def cwnd(self):
        return float(self.conn.cc.cwnd)

    def backlog_bytes(self):
        fresh = sum(s.pending_fresh() for s in
                    self.conn.send_streams.values())
        return float(self.conn._bytes_in_flight() + fresh)


class QuicPageFetcher:
    """Pages over a browser-style pool of single-path QUIC connections.

    Responses arrive on server-initiated streams carrying an 8-byte
    ``(request stream id, size)`` header so concurrent transfers on one
    connection demultiplex cleanly.
    """

    capacity = 8          # streams multiplex on one connection
    max_per_host = 4

    def __init__(self, sim, topo, psk=WORKLOAD_PSK, port=4433,
                 max_per_host=None, **conn_kwargs):
        self.sim = sim
        self.topo = topo
        self.psk = psk
        self.port = port
        self.conn_kwargs = conn_kwargs
        if max_per_host is not None:
            self.max_per_host = max_per_host
        from repro.baselines.quic import QuicServer, UdpStack

        self._c_udp = UdpStack(sim, topo.client)
        self._s_udp = UdpStack(sim, topo.server)
        p0 = topo.path(0)
        self.server = QuicServer(sim, self._s_udp, p0.server_addr, port,
                                 psk=psk, **conn_kwargs)
        self.server.on_connection = self._serve

    def connect(self, on_ready):
        self.sim.schedule(0.0, on_ready)

    def pool(self, bus=None, idle_timeout=30.0):
        return ConnectionPool(
            self.sim, self._factory, max_per_host=self.max_per_host,
            capacity=self.capacity, idle_timeout=idle_timeout, bus=bus,
        )

    def _factory(self, _host):
        from repro.baselines.quic import QuicClient

        p0 = self.topo.path(0)
        conn = QuicClient(self.sim, self._c_udp, p0.client_addr,
                          Endpoint(p0.server_addr, self.port),
                          psk=self.psk, **self.conn_kwargs)
        return _QuicHandle(conn)

    def fetch(self, entry, transfer, done):
        entry.handle.fetch(transfer, done)

    # -- server side -----------------------------------------------------

    def _serve(self, conn):
        answered = set()

        def on_stream_data(c, sid, recv_stream):
            if sid in answered or len(recv_stream.buffer) < 32:
                return
            answered.add(sid)
            size = int(bytes(recv_stream.buffer[1:32]))
            rsp = c.open_stream()
            c.stream_send(rsp, _QUIC_RSP.pack(sid, size) + b"\x00" * size,
                          fin=True)

        conn.on_stream_data = on_stream_data


# -- MPTCP -----------------------------------------------------------------


class _MptcpHandle:
    """One pooled MPTCP connection: a single serial byte stream."""

    __slots__ = ("conn", "current", "queue", "_received")

    def __init__(self, conn):
        self.conn = conn
        self.current = None    # (transfer, done)
        self.queue = []
        self._received = 0
        conn.on_established = self._flush
        conn.on_data = self._on_data

    def fetch(self, transfer, done):
        self.queue.append((transfer, done))
        if self.current is None and self.conn.established:
            self._next()

    def _flush(self, _conn):
        if self.current is None:
            self._next()

    def _next(self):
        if not self.queue:
            return
        self.current = self.queue.pop(0)
        self._received = 0
        self.conn.send(_request(self.current[0].size))

    def _on_data(self, conn):
        self._received += len(conn.recv())
        # The stream is serial: responses arrive strictly in request
        # order, so a byte count against the head transfer suffices.
        while self.current is not None and \
                self._received >= self.current[0].size:
            self._received -= self.current[0].size
            done = self.current[1]
            self.current = None
            done()
            self._next()

    def _came_up(self):
        return [sf for sf in self.conn.subflows if sf.up_at is not None]

    def srtt(self):
        live = [sf.srtt() for sf in self._came_up()]
        finite = [s for s in live if s != float("inf")]
        return min(finite) if finite else float("inf")

    def cwnd(self):
        return float(sum(sf.tcp.congestion_window()
                         for sf in self._came_up())
                     or 1500.0 * 10)

    def backlog_bytes(self):
        conn = self.conn
        return float(len(conn.pending)
                     + sum(len(chunk) for chunk, _sf
                           in conn.unacked.values()))


class MptcpPageFetcher:
    """Pages over a pool of MPTCP connections (one serial byte stream
    each, multipath underneath) -- browsers never got stream
    multiplexing out of MPTCP, so capacity stays 1 and the pool's
    reuse-vs-new accounting carries the load."""

    capacity = 1
    max_per_host = 6

    def __init__(self, sim, topo, n_paths=2, port=443,
                 path_manager="fullmesh", max_per_host=None):
        self.sim = sim
        self.topo = topo
        self.n_paths = n_paths
        self.port = port
        self.path_manager = path_manager
        if max_per_host is not None:
            self.max_per_host = max_per_host
        from repro.baselines.mptcp import MptcpServer

        self._cstack = TcpStack(sim, topo.client)
        self._sstack = TcpStack(sim, topo.server)
        self.server = MptcpServer(sim, self._sstack, port)
        self.server.on_connection = self._serve

    def connect(self, on_ready):
        self.sim.schedule(0.0, on_ready)

    def pool(self, bus=None, idle_timeout=30.0):
        return ConnectionPool(
            self.sim, self._factory, max_per_host=self.max_per_host,
            capacity=self.capacity, idle_timeout=idle_timeout, bus=bus,
        )

    def _factory(self, _host):
        from repro.baselines.mptcp import MptcpClient

        client = MptcpClient(self.sim, self._cstack,
                             path_manager=self.path_manager)
        pairs = [(p.client_addr, p.server_addr)
                 for p in self.topo.paths[:self.n_paths]]
        client.connect(pairs, self.port)
        return _MptcpHandle(client)

    def fetch(self, entry, transfer, done):
        entry.handle.fetch(transfer, done)

    # -- server side -----------------------------------------------------

    def _serve(self, conn):
        state = {"buf": b""}

        def on_data(c):
            state["buf"] += c.recv()
            while len(state["buf"]) >= 32:
                request, state["buf"] = state["buf"][:32], state["buf"][32:]
                c.send(b"\x00" * int(request[1:32]))

        conn.on_data = on_data
