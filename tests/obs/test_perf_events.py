"""The ``perf`` observability category: crypto byte totals and
event-loop heap-compaction statistics."""

import pytest

from helpers import connect_tcpls, make_net, tcpls_pair

from repro.net import Simulator
from repro.obs import ALL_CATEGORIES, CAT_PERF, CaptureSink

pytestmark = pytest.mark.obs


def test_perf_is_a_registered_category():
    assert CAT_PERF in ALL_CATEGORIES


def test_session_emits_crypto_totals_on_close():
    sim, topo, cstack, sstack = make_net()
    sink = CaptureSink()
    sim.bus.subscribe(sink, categories=(CAT_PERF,))
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    conn = connect_tcpls(sim, topo, client)
    stream = client.create_stream(conn)
    payload = bytes(range(256)) * 256
    stream.send(payload)
    sim.run(until=2)
    conn.tcp.close()
    sim.run(until=4)

    # The server observes the FIN and publishes its totals on close.
    totals = [e for e in sink.events if e.name == "crypto_totals"]
    assert totals, "no crypto_totals emitted on the perf category"
    server_totals = [e for e in totals if e.data["role"] == "server"]
    assert server_totals
    assert server_totals[-1].data["bytes_opened"] >= len(payload)
    # End-of-run reporting is also available on demand (the benches
    # call this for still-open sessions).
    client.emit_perf_totals()
    client_totals = [e for e in sink.events
                     if e.name == "crypto_totals"
                     and e.data["role"] == "client"]
    assert client_totals
    last = client_totals[-1].data
    assert last["bytes_sealed"] >= len(payload)
    assert last["records_sent"] >= 1
    assert last["heap_compactions"] == sim.compactions


def test_stats_track_sealed_and_opened_bytes():
    sim, topo, cstack, sstack = make_net()
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    conn = connect_tcpls(sim, topo, client)
    stream = client.create_stream(conn)
    payload = b"x" * 50000
    stream.send(payload)
    sim.run(until=2)
    assert client.stats["bytes_sealed"] >= len(payload)
    assert sessions[0].stats["bytes_opened"] >= len(payload)
    # Both directions carry control/ACK records too, so the counters
    # are never smaller than the raw payload but stay the same order.
    assert client.stats["bytes_sealed"] < 2 * len(payload)


def test_heap_compaction_event_carries_queue_sizes():
    from repro.net.simulator import MIN_COMPACT

    sim = Simulator()
    sink = CaptureSink()
    sim.bus.subscribe(sink, categories=(CAT_PERF,))
    events = [sim.schedule(1.0 + i, lambda: None)
              for i in range(2 * MIN_COMPACT)]
    for event in events[: MIN_COMPACT + 1]:
        event.cancel()
    names = [e.name for e in sink.events]
    assert "heap_compaction" in names
    data = sink.events[names.index("heap_compaction")].data
    assert data["before"] >= data["after"]
    assert data["compactions"] == sim.compactions
