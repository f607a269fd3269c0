"""Per-session memory budgets and backpressure in the server engine
(:class:`repro.core.engine.server.TcplsServerEngine`, ``budget_bytes``).

A session whose application stops draining must stop being *read* --
its buffered bytes bounded near the budget, its peer throttled through
the closing receive window -- while every other session keeps moving
(no cross-session head-of-line blocking).  Reads resume once the
application drains below the low watermark, and the budget keeps
applying when an MPJOIN adds a second transport.
"""

from helpers import PSK, make_net

from repro.core import TcplsClient, TcplsServer
from repro.net import Simulator, build_multipath
from repro.net.address import Endpoint
from repro.tcp import TcpStack

PORT = 4443
BUDGET = 64 * 1024


def _setup(budget=BUDGET, n_paths=2, seed=7):
    sim = Simulator(seed=seed)
    topo = build_multipath(sim, n_paths=n_paths,
                           rate_bps=100_000_000, delay=0.002)
    cstack = TcpStack(sim, topo.client)
    sstack = TcpStack(sim, topo.server)
    server = TcplsServer(sim, sstack, PORT, PSK, budget_bytes=budget,
                         auto_retire=True)
    return sim, topo, cstack, server


def paused(server):
    """The live connections the receive budget stopped reading."""
    return [conn for session in server.sessions.values()
            for conn in session.conns if conn.paused and conn in server.live]


def _connect(sim, topo, cstack, path=0):
    client = TcplsClient(sim, cstack, psk=PSK)
    p = topo.path(path)
    client.connect(p.client_addr, Endpoint(p.server_addr, PORT))
    sim.run(until=sim.now + 1.0)
    assert client.ready
    return client


def _flood(client, nbytes):
    conn = next(c for c in client.conns if c.usable())
    stream = client.create_stream(conn)
    stream.send(b"\xAB" * nbytes)
    return stream


def test_over_budget_session_stops_being_read():
    sim, topo, cstack, server = _setup()
    # The server application never drains this session's streams.
    server.on_session = lambda s: None
    client = _connect(sim, topo, cstack)
    _flood(client, 512 * 1024)
    sim.run(until=sim.now + 5.0)

    session = next(iter(server.sessions.values()))
    assert paused(server), "over-budget session was never paused"
    assert server.stats["pauses"] >= 1
    # Bounded: the budget is a soft watermark -- one batched read may
    # overshoot, but buffering must stay in the budget's neighbourhood,
    # nowhere near the 512 KiB the peer wants to push.
    assert session.buffered_rx_bytes() < 3 * BUDGET
    # The peer is throttled, not reset: its connection stays alive.
    assert client.conns[0].tcp.is_open()


def test_no_cross_session_head_of_line_blocking():
    sim, topo, cstack, server = _setup()
    stalled_sessions = []
    echoed = []

    def serve(session):
        if not stalled_sessions:
            stalled_sessions.append(session)  # first session: never drain
            return

        def on_stream_data(stream):
            data = stream.recv()
            stream.send(data)
            echoed.append(len(data))

        session.on_stream_data = on_stream_data

    server.on_session = serve
    stalled = _connect(sim, topo, cstack)
    healthy = _connect(sim, topo, cstack)
    _flood(stalled, 512 * 1024)

    got = []
    healthy.on_stream_data = lambda s: got.append(s.recv())
    stream = _flood(healthy, 4096)
    sim.run(until=sim.now + 5.0)

    assert paused(server), "stalled session should be paused"
    assert sum(len(d) for d in got) == 4096, \
        "healthy session starved behind a stalled one"


def test_resume_after_drain():
    sim, topo, cstack, server = _setup()
    sessions = []
    server.on_session = sessions.append      # buffer, don't drain yet
    client = _connect(sim, topo, cstack)
    total = 512 * 1024
    _flood(client, total)
    sim.run(until=sim.now + 5.0)
    assert paused(server)

    # Application catches up: drain everything buffered, repeatedly --
    # each drain below the low watermark resumes reads, the peer sends
    # more, possibly pausing again, until the full flood arrives.
    (session,) = sessions
    drained = []

    def pump():
        for stream in list(session.streams.values()):
            data = stream.recv()
            if data:
                drained.append(len(data))
        if sum(drained) < total:
            sim.schedule(0.05, pump)

    pump()
    sim.run(until=sim.now + 30.0)
    assert sum(drained) == total
    assert not paused(server)
    assert server.stats["resumes"] >= 1
    assert session.buffered_rx_bytes() == 0


def test_budget_survives_mpjoin_second_transport():
    sim, topo, cstack, server = _setup()
    server.on_session = lambda s: None       # never drain
    client = _connect(sim, topo, cstack)
    p1 = topo.path(1)
    client.join(p1.client_addr, remote=Endpoint(p1.server_addr, PORT))
    sim.run(until=sim.now + 1.0)
    assert len(client.conns) == 2 and client.conns[1].usable()

    session = next(iter(server.sessions.values()))
    assert all(conn in server.live for conn in session.conns)
    assert len(session.conns) == 2

    # Flood through BOTH transports: the shared session budget must
    # pause each of them, since buffered_rx_bytes is session-wide.
    for conn in client.conns:
        stream = client.create_stream(conn)
        stream.send(b"\xCD" * (512 * 1024))
    sim.run(until=sim.now + 5.0)

    assert len(paused(server)) == 2, \
        "both transports of the over-budget session must pause"
    assert session.buffered_rx_bytes() < 4 * BUDGET
