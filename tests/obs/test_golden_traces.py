"""Golden-trace regression tests for the Fig. 8 / Fig. 9 scenarios.

Under a fixed seed the scenario runs are deterministic, so the *key*
events — failover trigger, path switch, recovery — must appear in a
stable order on the bus, run after run.  Rather than pin every event
(fragile), each test asserts an ordered subsequence of load-bearing
events plus run-to-run stability of the full key-event trace.  All
invariant checkers are armed for the whole run and must stay clean
(an acceptance criterion of the tracing subsystem).
"""

import pytest

from tests.core.test_failover_scenarios import (
    download_setup,
    make_faulty_net,
)

from repro.obs import CaptureSink, arm_invariants

pytestmark = [pytest.mark.obs, pytest.mark.faults]

#: the events whose relative order the golden traces pin down
KEY_EVENTS = {
    "ready", "conn_established", "join", "conn_failed",
    "failover_pending", "failover", "sync_received", "replay",
    "stream_steered",
}


def is_subsequence(needle, haystack):
    it = iter(haystack)
    return all(item in it for item in needle)


def key_trace(sink):
    """(name, salient-data) tuples for the key events, in bus order."""
    out = []
    for event in sink.events:
        if event.name not in KEY_EVENTS:
            continue
        data = {k: v for k, v in event.data.items()
                if k in ("conn", "from", "to", "reason", "failed")}
        out.append((event.name, tuple(sorted(data.items()))))
    return out


def mid_transfer(sink, received, payload, done):
    """The download completed, and the first failure came before it
    did: what the trace pins is a failover, not the aftermath of a
    finished transfer."""
    assert done and bytes(received) == payload
    assert sink.select(name="conn_failed")[0].time < done[0]


def run_fig8_flap(seed=7):
    """Fig. 8 blackhole scenario at test scale: a 4 MiB download over 2
    paths, the primary flapping at t=1s for 2s, about half-way through."""
    sim, topo, cstack, sstack = make_faulty_net(seed=seed)
    harness = arm_invariants(sim)
    sink = CaptureSink()
    sim.bus.subscribe(sink, categories=("session", "recovery"))
    client, sessions, payload, received, done = download_setup(
        sim, topo, cstack, sstack, 4 << 20)
    client.join(topo.path(1).client_addr)
    topo.flap_path(0, at=1.0, duration=2.0)
    sim.run(until=20)
    mid_transfer(sink, received, payload, done)
    return sink, harness


def run_fig9_rotation(seed=9):
    """Fig. 9 at test scale: an 8 MiB download over 3 paths, the working
    one rotating every 2 s, so the session fails over mid-transfer."""
    sim, topo, cstack, sstack = make_faulty_net(n_paths=3, seed=seed)
    harness = arm_invariants(sim)
    sink = CaptureSink()
    sim.bus.subscribe(sink, categories=("session", "recovery"))
    client, sessions, payload, received, done = download_setup(
        sim, topo, cstack, sstack, 8 << 20)
    client.auto_user_timeout = 0.25
    for i in range(1, 3):
        client.join(topo.path(i).client_addr)
    sim.run(until=sim.now + 0.3)       # joins complete before the chaos
    topo.rotate_working(2.0)
    sim.run(until=40)
    mid_transfer(sink, received, payload, done)
    return sink, harness


def test_fig8_key_event_subsequence():
    sink, harness = run_fig8_flap()
    names = sink.names()
    # The failover chain, in causal order: the session comes up, the
    # second path joins, the flap kills the primary, streams move onto
    # the joined path and replay there, and the peer resynchronises.
    assert is_subsequence(
        ["ready", "join", "conn_failed", "failover", "replay",
         "sync_received"],
        names,
    )
    # With a backup already joined the failover is immediate — no
    # pending state.
    assert "failover_pending" not in names
    harness.assert_clean()


def test_fig8_failover_without_backup_goes_through_pending():
    """No pre-joined backup: the failure must first park the streams
    (failover_pending), then a fresh join resolves it."""
    sim, topo, cstack, sstack = make_faulty_net()
    harness = arm_invariants(sim)
    sink = CaptureSink()
    sim.bus.subscribe(sink, categories=("session", "recovery"))
    client, sessions, payload, received, done = download_setup(
        sim, topo, cstack, sstack, 1 << 20)
    topo.flap_path(0, at=1.0, duration=2.0)
    sim.run(until=20)
    assert done and bytes(received) == payload
    assert is_subsequence(
        ["conn_failed", "failover_pending", "join", "failover"],
        sink.names(),
    )
    harness.assert_clean()


def test_fig8_failover_event_names_the_surviving_connection():
    """Both ends arm the UTO, so both see the blackhole: each fails over
    once, from the connection it saw fail."""
    sink, _harness = run_fig8_flap()
    failovers = sink.select(name="failover")
    assert sorted(e.data["session"] for e in failovers) == [1, 2]
    for failover in failovers:
        failed = sink.select(name="conn_failed",
                             session=failover.data["session"])
        assert failed[0].data["conn"] == failover.data["from"]
        assert failover.data["from"] != failover.data["to"]
        assert failover.data["streams"] >= 1


def test_fig8_peer_sees_the_sync_and_replay():
    sink, _harness = run_fig8_flap()
    for failover in sink.select(name="failover"):
        peer = 3 - failover.data["session"]
        # The SYNC names the connection that failed and arrives on the
        # surviving one.
        (sync,) = sink.select(name="sync_received", session=peer)
        assert sync.data["failed"] == failover.data["from"]
        assert sync.data["conn"] == failover.data["to"]
    # The failing side replays its unacked records after the SYNC.
    assert sink.select(name="replay")


def test_fig8_each_end_replays_only_what_its_own_failover_moved():
    """Each end's failover moves its streams and replays their unacked
    records once, right after its SYNC.  The peer's SYNC then names
    streams that are already on the connection it arrives on: it moves
    nothing and replays nothing."""
    sink, _harness = run_fig8_flap()
    for session in (1, 2):
        names = [e.name for e in sink.events
                 if e.data.get("session") == session
                 and e.name in ("failover", "sync_received", "replay")]
        assert names == ["failover", "replay", "sync_received"]


def test_fig8_golden_trace_is_stable_across_runs():
    first, _ = run_fig8_flap()
    second, _ = run_fig8_flap()
    assert key_trace(first) == key_trace(second)
    assert key_trace(first), "key-event trace unexpectedly empty"


def test_fig9_multiple_failovers_in_order():
    sink, harness = run_fig9_rotation()
    failovers = sink.select(name="failover")
    assert len(failovers) >= 2, (
        "rotating outages should force repeated failovers, saw %d"
        % len(failovers))
    # Every failover is preceded by its connection failing.
    names = sink.names()
    assert is_subsequence(["conn_failed", "failover"], names)
    times = [e.time for e in sink.events]
    assert times == sorted(times)
    harness.assert_clean()


def test_fig9_golden_trace_is_stable_across_runs():
    first, _ = run_fig9_rotation()
    second, _ = run_fig9_rotation()
    assert key_trace(first) == key_trace(second)


def test_fig9_different_seed_still_clean():
    """The invariants hold regardless of the seed (the golden *order*
    may differ; correctness may not)."""
    _sink, harness = run_fig9_rotation(seed=23)
    harness.assert_clean()
