"""One event vocabulary: the :class:`SessionEvent` handler table.

Library code subscribes and the application owns one ``on_<event>``
slot per event, so neither can displace the other: the server engine
keeps its books and its backpressure resume whatever slots the
application assigns, and every failed connection is published on the
bus as well as to the handlers.
"""

import pytest

from helpers import PSK

from repro.core import SessionEvent, TcplsClient, TcplsServer
from repro.core.drivers import StubDriver, bootstrap_ready_session
from repro.core.engine import (
    TcplsClientEngine,
    TcplsEngine,
    TcplsServerEngine,
)
from repro.core.engine.interfaces import PlainAddress, PlainEndpoint
from repro.net import Simulator, build_multipath
from repro.net.address import Endpoint
from repro.obs import CaptureSink
from repro.perf.loadgen import LoadgenHarness
from repro.tcp import TcpStack
from tests.core.test_multi_backpressure import _connect, _flood, _setup, paused
from tests.obs.test_golden_traces import run_fig9_rotation


def test_subscribers_run_in_order_then_the_slot():
    engine, _conn = bootstrap_ready_session()
    calls = []
    engine.subscribe(SessionEvent.PONG, lambda c, p: calls.append("a"))
    engine.on_pong = lambda c, p: calls.append("app")
    engine.subscribe(SessionEvent.PONG, lambda c, p: calls.append("b"))
    engine.emit(SessionEvent.PONG, None, b"")
    assert calls == ["a", "b", "app"]


def test_assigning_a_slot_replaces_only_the_application():
    engine, _conn = bootstrap_ready_session()
    calls = []
    first = calls.append
    engine.on_drain = first
    engine.subscribe(SessionEvent.DRAIN, lambda s: calls.append("lib"))
    engine.on_drain = lambda s: calls.append("app")
    engine.emit(SessionEvent.DRAIN, engine)
    assert calls == ["lib", "app"]
    engine.on_drain = None
    assert engine.on_drain is None
    engine.emit(SessionEvent.DRAIN, engine)
    assert calls == ["lib", "app", "lib"]


def test_a_handler_added_during_an_emission_waits_for_the_next():
    engine, _conn = bootstrap_ready_session()
    calls = []

    def first(session):
        calls.append("first")
        engine.subscribe(SessionEvent.WRITABLE,
                         lambda s: calls.append("late"))

    engine.subscribe(SessionEvent.WRITABLE, first)
    engine.emit(SessionEvent.WRITABLE, engine)
    assert calls == ["first"]


def test_each_engine_has_the_slots_of_the_events_it_emits():
    session_events = list(SessionEvent)[:13]
    server_events = list(SessionEvent)[13:]
    for event in SessionEvent:
        name = "on_" + event.name.lower()
        assert hasattr(TcplsEngine, name) == (event in session_events)
        assert hasattr(TcplsServerEngine, name) == (event in server_events)


class _NotingHarness(LoadgenHarness):
    """The C1M harness whose server application also listens for failed
    connections, through its slot or by subscribing."""

    def __init__(self, how, **kwargs):
        self.how = how
        self.noted = []
        super().__init__(**kwargs)

    def _serve(self, session):
        super()._serve(session)
        if self.how == "slot":
            session.on_conn_failed = self._note
        else:
            session.subscribe(SessionEvent.CONN_FAILED, self._note)

    def _note(self, conn, reason):
        self.noted.append(reason)


@pytest.mark.parametrize("how", ["slot", "subscribe"])
def test_an_application_conn_failed_handler_leaks_no_mux_entry(how):
    """The failover sessions' dead connections leave the server's books
    (and their sessions retire) although the application handles
    ``CONN_FAILED`` too."""
    harness = _NotingHarness(how, sessions=40, failover_sessions=4, seed=3)
    metrics = harness.run()
    assert metrics["failovers"] == 4 and harness.noted
    assert metrics["table_end"] == metrics["sessions_end"] == 0


def test_backpressure_resumes_when_the_application_sets_on_drain():
    sim, topo, cstack, server = _setup()
    sessions = []
    drains = []

    def serve(session):
        sessions.append(session)
        session.on_drain = drains.append

    server.on_session = serve
    client = _connect(sim, topo, cstack)
    total = 512 * 1024
    _flood(client, total)
    sim.run(until=sim.now + 5.0)
    assert paused(server)
    (session,) = sessions
    drained = []

    def pump():
        for stream in list(session.streams.values()):
            drained.append(len(stream.recv()))
        if sum(drained) < total:
            sim.schedule(0.05, pump)

    pump()
    sim.run(until=sim.now + 30.0)
    assert sum(drained) == total and drains
    assert server.stats["resumes"] >= 1 and not paused(server)


def test_the_peer_publishes_the_connection_a_sync_names_as_failed():
    """Fig. 9's rotation: the server's UTO fails the join it had moved
    the download onto, and the client, whose end of that join had not
    failed, learns it from the server's SYNC."""
    sink, harness = run_fig9_rotation()
    sync = sink.select(name="sync_received")[-1]
    assert any(event.data["reason"] == "sync"
               and event.data["conn"] == sync.data["failed"]
               and event.data["session"] == sync.data["session"]
               for event in sink.select(name="conn_failed"))
    harness.assert_clean()


def test_a_failed_handshake_is_published_on_the_bus():
    driver = StubDriver()
    sink = CaptureSink()
    driver.bus.subscribe(sink, categories=("session",))
    client = TcplsClientEngine(driver, PSK)
    reasons = []
    client.on_conn_failed = lambda conn, reason: reasons.append(reason)
    conn = client.connect(PlainAddress("client"),
                          PlainEndpoint(PlainAddress("server"), 443))
    conn.tcp.on_established(conn.tcp)
    # A handshake record carrying a message type no state expects.
    client.bytes_received(conn, b"\x16\x03\x03\x00\x04\x63\x00\x00\x00")
    (failed,) = sink.select(name="conn_failed")
    assert reasons == [failed.data["reason"]]
    assert failed.data["reason"].startswith("tls:")


def test_a_session_the_server_retires_ends_on_the_client():
    """The server retiring a one-connection session closes it cleanly:
    the client closes its half (no transport left in CLOSE_WAIT), is no
    longer ready, and publishes one ``CONN_FAILED(conn, "fin")`` --
    without failing over or joining, though it holds join cookies.
    The server's books and ``mux`` events are those of any retirement."""
    sim = Simulator(seed=5)
    topo = build_multipath(sim, n_paths=2, rate_bps=100_000_000, delay=0.002)
    server = TcplsServer(sim, TcpStack(sim, topo.server), 4443, PSK)
    sink = CaptureSink()
    sim.bus.subscribe(sink, categories=("mux", "session"))
    client = TcplsClient(sim, TcpStack(sim, topo.client), psk=PSK)
    path = topo.path(0)
    client.connect(path.client_addr, Endpoint(path.server_addr, 4443))
    sim.run(until=0.5)
    client.enable_failover()
    sim.run(until=1.0)
    assert client.ready and client.cookies
    failed = []
    client.on_conn_failed = lambda conn, reason: failed.append((conn, reason))

    (session,) = server.sessions.values()
    server.retire(session)
    sim.run(until=sim.now + 1.0)

    (conn,) = client.conns
    assert conn.tcp.state == "CLOSED"
    assert not client.ready
    assert failed == [(conn, "fin")]
    assert not sink.select(name="join")
    mux = [event.name for event in sink if event.category == "mux"]
    assert mux == ["accept", "attach", "session_retired"]
    assert server.stats == {"accepts": 1, "attaches": 1, "teardowns": 1,
                            "peak": 1, "pauses": 0, "resumes": 0,
                            "retired": 1}
    assert not server.live and not server.sessions
