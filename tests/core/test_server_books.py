"""The server engine's books and the ``mux`` events that publish them.

:class:`~repro.core.engine.server.TcplsServerEngine` records every
transport where it handles it: live from accept, pending until it
attaches, gone when it aborts, fails, is closed by its peer or its
session retires.  Each change is one event on the bus's ``mux``
category carrying the ``table`` (live transports) and ``sessions``
gauges -- the contract the wall-clock ledger's ``drivers.*`` counts
read.
"""

from collections import Counter

from helpers import PSK

from repro.core import TcplsClient, TcplsServer
from repro.net import Simulator, build_multipath
from repro.net.address import Endpoint
from repro.obs import CaptureSink
from repro.perf.loadgen import LoadgenHarness
from repro.tcp import TcpStack

PORT = 4443


def test_mux_events_of_a_small_churn_run():
    """Connect waves, joins, four failovers and churn: the counts and
    the peak ``table`` gauge are those the serving layer published
    before it moved into the engine."""
    harness = LoadgenHarness(sessions=40, failover_sessions=4, seed=3)
    sink = CaptureSink()
    harness.sim.bus.subscribe(sink, categories=("mux",))
    metrics = harness.run()

    counts = Counter(event.name for event in sink)
    assert (counts["accept"], counts["teardown"], counts["pause"]) == \
        (55, 55, 0)
    assert max(event.data["table"] for event in sink) == 45
    assert all("table" in event.data and "sessions" in event.data
               for event in sink)
    assert metrics["table_peak"] == 45
    assert metrics["accepts"] == metrics["teardowns"] == 55


def _net():
    sim = Simulator(seed=5)
    topo = build_multipath(sim, n_paths=2, rate_bps=100_000_000,
                           delay=0.002)
    cstack = TcpStack(sim, topo.client)
    server = TcplsServer(sim, TcpStack(sim, topo.server), PORT, PSK)
    sink = CaptureSink()
    sim.bus.subscribe(sink, categories=("mux",))
    return sim, topo, cstack, server, sink


def _client(sim, topo, cstack):
    client = TcplsClient(sim, cstack, psk=PSK)
    p = topo.path(0)
    client.connect(p.client_addr, Endpoint(p.server_addr, PORT))
    sim.run(until=sim.now + 0.5)
    assert client.ready
    return client


def test_books_track_the_peak_and_drain_to_zero():
    sim, topo, cstack, server, sink = _net()
    first = _client(sim, topo, cstack)
    second = _client(sim, topo, cstack)
    p1 = topo.path(1)
    first.join(p1.client_addr, remote=Endpoint(p1.server_addr, PORT))
    sim.run(until=sim.now + 0.5)
    assert len(server.live) == server.stats["peak"] == 3
    assert server.stats["attaches"] == 3

    second.close()
    sim.run(until=sim.now + 0.5)
    assert len(server.live) == 2 and server.stats["peak"] == 3
    first.close()
    sim.run(until=sim.now + 0.5)
    stats = server.stats
    assert not server.live
    assert stats["accepts"] == stats["teardowns"] == 3
    assert stats["peak"] == 3
    # Without auto-retire the sessions outlive their transports.
    assert len(server.sessions) == 2 and stats["retired"] == 0
    assert [e.data["table"] for e in sink if e.name == "teardown"] == \
        [2, 1, 0]


def test_a_transport_torn_down_twice_counts_once():
    """Retiring a session forgets its transports; the peer's FIN that
    answers the retirement's own arrives later and counts nothing."""
    sim, topo, cstack, server, sink = _net()
    client = _client(sim, topo, cstack)
    (session,) = server.sessions.values()
    server.retire(session)
    assert not server.live and server.stats["teardowns"] == 1
    sim.run(until=sim.now + 0.5)
    client.close()
    sim.run(until=sim.now + 0.5)
    assert not session.conns[0].tcp.is_open()     # the FIN arrived
    assert server.stats["accepts"] == server.stats["teardowns"] == 1
    assert server.stats["retired"] == 1
    assert [e.name for e in sink] == ["accept", "attach",
                                      "session_retired"]
