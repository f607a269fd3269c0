"""Cross-layer tracing: events from a real protocol run must agree
with the ground-truth counters the layers already keep."""

import pytest

from helpers import (
    bulk_receiver,
    bulk_sender,
    connect_tcpls,
    make_net,
    tcp_pair,
    tcpls_pair,
)

from repro.net import Resegmenter, Simulator
from repro.net.address import IPAddress
from repro.net.link import Link
from repro.net.packet import Packet
from repro.obs import CaptureSink, arm_invariants
from repro.tcp.segment import Segment

pytestmark = pytest.mark.obs

SIZE = 256 << 10


def test_tcp_state_machine_edges_are_traced():
    sim, topo, cstack, sstack = make_net()
    sink = CaptureSink()
    sim.bus.subscribe(sink, categories=("tcp",))
    conn, accepted = tcp_pair(sim, topo, cstack, sstack)
    for c in accepted:
        c.on_data = lambda cc: cc.recv()
    bulk_sender(conn, bytes(range(256)) * 64)
    sim.run(until=2.0)
    conn.close()
    sim.run(until=10.0)
    edges = [(e.data["old"], e.data["new"])
             for e in sink.select(name="state_changed",
                                  conn=conn.conn_id)]
    # The client walked the canonical active-open/active-close path.
    assert edges[0] == ("CLOSED", "SYN_SENT")
    assert ("SYN_SENT", "ESTABLISHED") in edges
    assert ("ESTABLISHED", "FIN_WAIT_1") in edges
    # The passive side never closes here, so the client parks in
    # FIN_WAIT_2 (or, if the FIN exchange completed, beyond it).
    assert edges[-1][1] in ("FIN_WAIT_2", "TIME_WAIT", "CLOSED")
    # Every edge is connected: new state of edge N is old state of N+1.
    for (_, new), (old, _) in zip(edges, edges[1:]):
        assert new == old


def test_cwnd_events_track_the_controller():
    from repro.net.address import Endpoint

    sim, topo, cstack, sstack = make_net()
    sink = CaptureSink()
    sim.bus.subscribe(sink, categories=("tcp",))
    on_accept, _received = bulk_receiver()
    sstack.listen(443, on_accept)
    p = topo.path(0)
    conn = cstack.connect(p.client_addr, Endpoint(p.server_addr, 443))
    bulk_sender(conn, b"z" * SIZE)
    sim.run(until=3.0)
    updates = sink.select(name="cwnd_updated", conn=conn.conn_id)
    assert updates, "bulk transfer produced no cwnd updates"
    # The last traced value equals the controller's live value (events
    # carry whole bytes — int() of the float cwnd).
    assert updates[-1].data["cwnd"] == int(conn.cc.cwnd)
    assert all(u.data["cwnd"] > 0 for u in updates)
    # Deduplicated: consecutive events differ in cwnd or ssthresh.
    for a, b in zip(updates, updates[1:]):
        assert (a.data["cwnd"], a.data["ssthresh"]) != \
            (b.data["cwnd"], b.data["ssthresh"])


def test_record_events_match_session_stats():
    sim, topo, cstack, sstack = make_net()
    sink = CaptureSink()
    sim.bus.subscribe(sink, categories=("tls",))
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    conn = connect_tcpls(sim, topo, client)
    sessions[0].on_stream_data = lambda st: st.recv()
    client.create_stream(conn).send(b"r" * SIZE)
    sim.run(until=sim.now + 2.0)
    sealed_client = sink.select(name="record_sealed",
                                session=client.obs_id)
    opened_server = sink.select(name="record_opened",
                                session=sessions[0].obs_id)
    assert len(sealed_client) == client.stats["records_sent"]
    assert len(opened_server) == sessions[0].stats["records_received"]
    # Nothing was lost on a clean network: the server opened every
    # record the client sealed (both directions carry ACK records too,
    # so compare the client->server direction only).
    assert len(opened_server) == len(sealed_client)


def test_link_drop_events_match_link_stats():
    from repro.net.address import Endpoint

    sim, topo, cstack, sstack = make_net()
    topo.path(0).c2s.loss_rate = 0.05
    sink = CaptureSink()
    sim.bus.subscribe(sink, categories=("link",))
    on_accept, received = bulk_receiver()
    sstack.listen(443, on_accept)
    p = topo.path(0)
    conn = cstack.connect(p.client_addr, Endpoint(p.server_addr, 443))
    bulk_sender(conn, b"d" * SIZE)
    finished = sim.run_until(lambda: len(received) >= SIZE, timeout=60)
    assert finished
    link = topo.path(0).c2s
    drops = sink.select(name="drop", link=link.obs_name)
    delivers = sink.select(name="deliver", link=link.obs_name)
    enqueues = sink.select(name="enqueue", link=link.obs_name)
    assert len(drops) == link.stats.dropped_packets > 0
    assert len(delivers) == link.stats.tx_packets
    assert len(enqueues) >= len(drops) + len(delivers)
    # Per-reason breakdown matches the link's own accounting.
    reasons = {}
    for event in drops:
        reasons[event.data["reason"]] = \
            reasons.get(event.data["reason"], 0) + 1
    assert reasons == dict(link.stats.drop_reasons)
    # And byte counts agree too.
    assert sum(e.data["bytes"] for e in delivers) == link.stats.tx_bytes


def test_resegmented_pieces_are_booked_like_deliveries():
    """A resegmenter turns one 1,448-byte segment into three packets at
    the sink: the link books all three, each with an enqueue/deliver
    event pair, and conservation stays balanced."""
    sim = Simulator()
    harness = arm_invariants(sim, strict=True)
    sink = CaptureSink()
    sim.bus.subscribe(sink, categories=("link",))
    link = Link(sim, rate_bps=None, delay=0.001)
    link.add_middlebox(Resegmenter(chunk=536))
    arrived = []
    link.connect(arrived.append)
    segment = Segment(src_port=1000, dst_port=2000, seq=0,
                      flags=frozenset({"ACK"}), payload=bytes(1448))
    link.send(Packet(IPAddress("10.0.0.1"), IPAddress("10.0.0.2"), "tcp",
                     segment))
    sim.run()
    harness.assert_clean()
    sizes = sorted(packet.wire_size() for packet in arrived)
    assert len(sizes) == 3 and sum(sizes) == 1568
    assert link.stats.tx_packets == 3
    assert link.stats.tx_bytes == 1568
    delivers = sink.select(name="deliver", link=link.obs_name)
    assert sorted(e.data["bytes"] for e in delivers) == sizes
    assert len(sink.select(name="enqueue", link=link.obs_name)) == 3


def test_full_run_with_everything_armed_is_clean_and_cheap():
    """All checkers + a ring buffer armed for a whole lossy transfer:
    zero violations, and the ring holds only its capacity."""
    from repro.obs import RingBufferSink

    sim, topo, cstack, sstack = make_net()
    topo.path(0).c2s.loss_rate = 0.02
    topo.path(0).s2c.loss_rate = 0.02
    harness = arm_invariants(sim)
    ring = RingBufferSink(capacity=256)
    sim.bus.subscribe(ring)
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    conn = connect_tcpls(sim, topo, client)
    sessions[0].on_stream_data = lambda st: st.recv()
    client.create_stream(conn).send(b"k" * SIZE)
    sim.run(until=sim.now + 5.0)
    harness.assert_clean()
    assert len(ring.events) <= 256
    assert ring.seen > 256 and ring.dropped == ring.seen - 256


def test_unsubscribed_run_emits_nothing():
    """With no sinks the whole instrumented stack emits zero events —
    the tracing layer must be free when off."""
    sim, topo, cstack, sstack = make_net()
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    conn = connect_tcpls(sim, topo, client)
    sessions[0].on_stream_data = lambda st: st.recv()
    client.create_stream(conn).send(b"q" * SIZE)
    sim.run(until=sim.now + 2.0)
    assert sim.bus.events_emitted == 0


def test_two_captures_of_one_seed_agree_from_the_first_event():
    """Every id an event carries (TCP connection, session, unnamed
    link) is drawn from the simulation's own bus, so how many
    simulations the process ran before does not show in a capture."""
    from repro.net import Link

    def capture():
        sim, topo, cstack, sstack = make_net()
        sink = CaptureSink()
        sim.bus.subscribe(sink)
        client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
        conn = connect_tcpls(sim, topo, client)
        client.join(topo.path(1).client_addr)
        sessions[0].on_stream_data = lambda st: st.recv()
        client.create_stream(conn).send(b"i" * (64 << 10))
        sim.run(until=sim.now + 1.0)
        return ([(e.time, e.category, e.name, e.data) for e in sink],
                client.obs_id, conn.tcp.conn_id, Link(sim).obs_name)

    first, second = capture(), capture()
    assert first == second
    events, session_id, tcp_id, link_name = first
    assert (session_id, tcp_id) == (1, 1)
    assert link_name == "link-5"        # the four path links count too
    assert events[0][2:] == ("state_changed", {
        "conn": 1, "old": "CLOSED", "new": "SYN_SENT"})
