"""Shared scenario builders for the matrix points and the remaining
pytest benches.

Each experiment mirrors a Sec. 5 evaluation setup: a goodput probe
sampled every 0.25 s of simulated time, and a client/server pair that
downloads or uploads one object.
"""

from repro.net.address import Endpoint
from repro.tcp import TcpStack
from repro.core import TcplsClient, TcplsServer
from repro.baselines.mptcp import MptcpClient, MptcpServer

PSK = b"bench-psk"


class GoodputProbe:
    """Samples application goodput over fixed intervals."""

    def __init__(self, sim, interval=0.25):
        self.sim = sim
        self.interval = interval
        self.samples = []        # (time, mbps)
        self._received = 0
        self._last = 0
        self._stop = False
        sim.schedule(interval, self._tick)

    def account(self, nbytes):
        self._received += nbytes

    @property
    def total(self):
        return self._received

    def stop(self):
        self._stop = True

    def _tick(self):
        mbps = (self._received - self._last) * 8 / self.interval / 1e6
        self.samples.append((round(self.sim.now, 3), round(mbps, 2)))
        self._last = self._received
        if not self._stop:
            self.sim.schedule(self.interval, self._tick)

    def series(self):
        return list(self.samples)

    def mean_between(self, start, end):
        values = [v for t, v in self.samples if start <= t < end]
        return sum(values) / len(values) if values else 0.0

    def stddev_between(self, start, end):
        values = [v for t, v in self.samples if start <= t < end]
        if len(values) < 2:
            return 0.0
        mean = sum(values) / len(values)
        return (sum((v - mean) ** 2 for v in values) / len(values)) ** 0.5


def build_tcpls_download(sim, topo, size, uto=0.25, failover=True,
                         record_payload=16384, server_cc="cubic",
                         client_kwargs=None):
    """Client requests; server pushes ``size`` bytes on one stream.

    Returns (client, server_sessions, probe, done_times).
    """
    cstack = TcpStack(sim, topo.client)
    sstack = TcpStack(sim, topo.server)
    server = TcplsServer(sim, sstack, 443, psk=PSK, cc=server_cc,
                         record_payload=record_payload)
    client = TcplsClient(sim, cstack, psk=PSK,
                         record_payload=record_payload,
                         **(client_kwargs or {}))
    probe = GoodputProbe(sim)
    sessions = []
    done = []

    def on_session(sess):
        sessions.append(sess)
        if failover:
            sess.enable_failover()

        def on_stream_data(stream):
            if stream.recv().startswith(b"GET"):
                out = sess.create_stream(sess.conns[0])
                out.send(b"F" * size)
                out.close()
        sess.on_stream_data = on_stream_data

    server.on_session = on_session

    def on_client_stream(stream):
        data = stream.recv()
        probe.account(len(data))
        if probe.total >= size and not done:
            done.append(sim.now)
            probe.stop()

    client.on_stream_data = on_client_stream

    def on_ready(_session):
        if uto is not None:
            client.set_user_timeout(client.conns[0], uto)
        request = client.create_stream(client.conns[0])
        request.send(b"GET /file")

    client.on_ready = on_ready
    p0 = topo.path(0)
    client.connect(p0.client_addr, Endpoint(p0.server_addr, 443))
    return client, sessions, probe, done


def build_tcpls_group_upload(sim, topo, size, record_payload=16384,
                             n_paths=2, scheduler=None):
    """Client aggregates ``n_paths`` connections and uploads ``size``
    bytes on a coupled group scheduled by ``scheduler`` (round-robin
    when None).  Returns (client, sessions, probe, done).
    """
    cstack = TcpStack(sim, topo.client)
    sstack = TcpStack(sim, topo.server)
    server = TcplsServer(sim, sstack, 443, psk=PSK,
                         record_payload=record_payload)
    client = TcplsClient(sim, cstack, psk=PSK,
                         record_payload=record_payload)
    probe = GoodputProbe(sim)
    sessions = []
    done = []

    def on_session(sess):
        sessions.append(sess)

        def on_group_data(group):
            probe.account(len(group.recv()))
            if group.complete and not done:
                done.append(sim.now)
                probe.stop()
        sess.on_group_data = on_group_data

    server.on_session = on_session
    state = {"joined": 1}

    def start_upload():
        group = client.create_coupled_group(client.alive_connections(),
                                            scheduler=scheduler)
        group.send(b"U" * size)
        group.close()

    def on_join(_conn):
        state["joined"] += 1
        if state["joined"] == n_paths:
            start_upload()

    client.on_join = on_join
    if n_paths == 1:
        client.on_ready = lambda s: start_upload()
    else:
        client.on_ready = lambda s: [
            client.join(topo.path(i).client_addr)
            for i in range(1, n_paths)
        ]
    p0 = topo.path(0)
    client.connect(p0.client_addr, Endpoint(p0.server_addr, 443))
    return client, sessions, probe, done


def build_mptcp_upload(sim, topo, size, path_manager="fullmesh",
                       n_paths=2, config_delay=0.0):
    """MPTCP client uploads ``size`` bytes; returns (client, probe, done)."""
    cstack = TcpStack(sim, topo.client)
    sstack = TcpStack(sim, topo.server)
    server = MptcpServer(sim, sstack, 443)
    probe = GoodputProbe(sim)
    done = []

    def on_connection(conn):
        def on_data(c):
            probe.account(len(c.recv()))
            if c.complete and not done:
                done.append(sim.now)
                probe.stop()
        conn.on_data = on_data

    server.on_connection = on_connection
    client = MptcpClient(sim, cstack, path_manager=path_manager,
                         config_delay=config_delay)
    pairs = [(p.client_addr, p.server_addr) for p in topo.paths[:n_paths]]
    client.connect(pairs, 443)
    client.on_established = lambda c: (c.send(b"M" * size), c.close())
    return client, probe, done


def fmt_series(series, every=4):
    """Render a (time, value) series compactly."""
    picked = series[::every]
    return "  ".join("%.1fs:%5.1f" % (t, v) for t, v in picked)


def banner(title):
    line = "=" * len(title)
    return "\n%s\n%s" % (title, line)
