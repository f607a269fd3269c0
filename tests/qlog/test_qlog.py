"""qlog tracing."""

import json

import pytest

from helpers import connect_tcpls, make_net, tcpls_pair

from repro.core.drivers import bootstrap_ready_session
from repro.net import Simulator
from repro.qlog import QlogTracer, attach_session_tracer

pytestmark = pytest.mark.obs


def test_events_carry_time_and_category():
    sim = Simulator()
    tracer = QlogTracer(sim)
    sim.schedule(0.5, tracer.log, "transport", "record_sent", {"n": 1})
    sim.run()
    (event,) = tracer.events
    assert event["time"] == 500.0  # milliseconds
    assert event["category"] == "transport"
    assert event["data"] == {"n": 1}


def test_document_shape_and_json():
    sim = Simulator()
    tracer = QlogTracer(sim, title="t", vantage_point="server")
    tracer.log("a", "b")
    document = json.loads(tracer.dumps())
    assert document["qlog_version"] == "0.4"
    assert document["traces"][0]["vantage_point"]["type"] == "server"
    assert len(document["traces"][0]["events"]) == 1


def test_empty_trace_is_valid_qlog(tmp_path):
    """A tracer that saw nothing still writes a loadable document."""
    sim = Simulator()
    tracer = QlogTracer(sim, title="empty")
    out = tmp_path / "empty.qlog"
    tracer.dump(str(out))
    document = json.loads(out.read_text())
    assert document["title"] == "empty"
    assert document["traces"][0]["events"] == []


def test_dump_round_trips_through_json(tmp_path):
    """dump() -> json.loads gives back exactly to_dict()."""
    sim = Simulator()
    tracer = QlogTracer(sim)
    tracer.log("transport", "record_sent", {"seq": 1, "length": 42})
    sim.schedule(0.25, tracer.log, "recovery", "failover",
                 {"from": 0, "to": 1})
    sim.run()
    out = tmp_path / "trace.qlog"
    tracer.dump(str(out))
    assert json.loads(out.read_text()) == tracer.to_dict()


def test_event_times_are_monotone_for_a_live_session():
    sim, topo, cstack, sstack = make_net()
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    tracer = attach_session_tracer(client, QlogTracer(sim),
                                   trace_records=True)
    conn = connect_tcpls(sim, topo, client)
    stream = client.create_stream(conn)
    stream.send(b"x" * 50000)
    sim.run(until=sim.now + 0.5)
    times = [e["time"] for e in tracer.events]
    assert times, "expected events from a live session"
    assert times == sorted(times)


def test_session_tracer_captures_lifecycle(tmp_path):
    sim, topo, cstack, sstack = make_net()
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    tracer = attach_session_tracer(client, QlogTracer(sim))
    connect_tcpls(sim, topo, client)
    client.join(topo.path(1).client_addr)
    sim.run(until=sim.now + 0.5)
    names = [e["event"] for e in tracer.events]
    assert "session_ready" in names
    assert "connection_established" in names
    assert "connection_joined" in names
    out = tmp_path / "trace.qlog"
    tracer.dump(str(out))
    assert json.loads(out.read_text())["traces"]


def test_record_level_tracing_subscribes_to_the_bus():
    """trace_records=True captures one tls event per record, scoped to
    this session only."""
    sim, topo, cstack, sstack = make_net()
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    tracer = attach_session_tracer(client, QlogTracer(sim),
                                   trace_records=True)
    conn = connect_tcpls(sim, topo, client)
    sessions[0].on_stream_data = lambda st: st.recv()
    stream = client.create_stream(conn)
    stream.send(b"traced" * 100)
    sim.run(until=sim.now + 0.5)
    sealed = [e for e in tracer.events if e["event"] == "record_sealed"]
    assert sealed
    assert {"conn", "stream", "seq", "type", "length"} <= set(
        sealed[0]["data"])
    # The stream-attach control and the data record are both visible.
    streams_seen = {e["data"]["stream"] for e in sealed}
    assert stream.stream_id in streams_seen
    # Scoping: only the client session's events were captured, and the
    # server's record events (opened on its own session id) were not.
    sessions_seen = {e["data"]["session"] for e in sealed}
    assert sessions_seen == {client.obs_id}


def test_record_level_tracing_needs_no_simulator():
    """trace_records=True subscribes through the session's own bus, so
    it works on an engine no simulator built."""
    engine, conn = bootstrap_ready_session()
    tracer = attach_session_tracer(engine, QlogTracer(engine.clock),
                                   trace_records=True)
    engine.create_stream(conn).send(b"traced")
    assert [e["data"]["session"] for e in tracer.events
            if e["event"] == "record_sealed"] == [engine.obs_id] * 2


def test_trace_records_false_captures_no_record_events():
    """Without trace_records, lifecycle is chained but no per-record
    events are captured (the former half-wired session.qlog behaviour
    is gone)."""
    sim, topo, cstack, sstack = make_net()
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    tracer = attach_session_tracer(client, QlogTracer(sim))
    conn = connect_tcpls(sim, topo, client)
    sessions[0].on_stream_data = lambda st: st.recv()
    client.create_stream(conn).send(b"quiet" * 100)
    sim.run(until=sim.now + 0.5)
    names = {e["event"] for e in tracer.events}
    assert "session_ready" in names
    assert "record_sealed" not in names
    assert "record_opened" not in names


def test_tracer_chains_existing_callbacks():
    sim, topo, cstack, sstack = make_net()
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    seen = []
    client.on_ready = lambda s: seen.append("app")
    tracer = attach_session_tracer(client, QlogTracer(sim))
    connect_tcpls(sim, topo, client)
    assert seen == ["app"]
    assert any(e["event"] == "session_ready" for e in tracer.events)


def test_a_slot_assigned_after_the_tracer_keeps_it():
    sim, topo, cstack, sstack = make_net()
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    tracer = attach_session_tracer(client, QlogTracer(sim))
    seen = []
    client.on_ready = lambda s: seen.append("app")
    connect_tcpls(sim, topo, client)
    assert seen == ["app"]
    assert any(e["event"] == "session_ready" for e in tracer.events)


def test_tracer_chains_all_preexisting_callbacks_on_failover():
    """Every chained callback still reaches the application: ready,
    established, failed and failover all fire app-side with the tracer
    attached in front."""
    sim, topo, cstack, sstack = make_net()
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    calls = []
    client.on_ready = lambda s: calls.append("ready")
    client.on_conn_established = lambda c: calls.append("established")
    client.on_conn_failed = lambda c, r: calls.append("failed:" + r)
    client.on_failover = lambda o, n: calls.append("failover")
    tracer = attach_session_tracer(client, QlogTracer(sim))
    connect_tcpls(sim, topo, client)

    def on_session(sess):
        sess.enable_failover()
        sess.on_stream_data = lambda st: st.recv()
    for sess in sessions:
        on_session(sess)
    client.enable_failover()
    client.join(topo.path(1).client_addr)
    sim.run(until=sim.now + 0.5)
    stream = client.create_stream(client.conns[0])
    stream.send(b"data" * 1000)
    client.set_user_timeout(client.conns[0], 0.25)
    topo.set_path_down(0)
    sim.run(until=sim.now + 3.0)
    assert "ready" in calls and "established" in calls
    assert any(c.startswith("failed:") for c in calls)
    assert "failover" in calls
    names = [e["event"] for e in tracer.events]
    assert "connection_failed" in names and "failover" in names
