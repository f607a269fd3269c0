"""Property-based and fault-injection tests of session invariants.

The central invariant (Fig. 4's promise): whatever failures occur and
whatever is replayed, application data is delivered **exactly once, in
order**, per stream and per coupled group.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import PSK, connect_tcpls, make_net, tcpls_pair

from repro.net.address import Endpoint
from repro.core import TcplsClient, TcplsServer
from repro.net import Simulator, build_multipath
from repro.tcp import TcpStack


@settings(max_examples=6, deadline=None)
@given(st.floats(0.3, 3.0), st.booleans())
def test_property_failover_exactly_once(outage_at, second_outage):
    """Blackhole the active path at a random time (optionally the next
    path too, later): the download still arrives byte-exact."""
    sim = Simulator(seed=31)
    topo = build_multipath(sim, n_paths=3, families=[4, 6, 4])
    cstack, sstack = TcpStack(sim, topo.client), TcpStack(sim, topo.server)
    server = TcplsServer(sim, sstack, 443, psk=PSK)
    size = 3 << 20
    payload = bytes(range(256)) * (size // 256)
    received = bytearray()
    done = []

    def on_session(sess):
        sess.enable_failover()

        def on_stream_data(stream):
            if stream.recv().startswith(b"GET"):
                out = sess.create_stream(sess.conns[0])
                out.send(payload)
                out.close()
        sess.on_stream_data = on_stream_data

    server.on_session = on_session
    client = TcplsClient(sim, cstack, psk=PSK, join_timeout=0.5)
    client.auto_user_timeout = 0.25

    def on_client_stream(stream):
        received.extend(stream.recv())
        if len(received) >= size and not done:
            done.append(sim.now)

    client.on_stream_data = on_client_stream

    def on_ready(_s):
        request = client.create_stream(client.conns[0])
        request.send(b"GET /file")
        request.close()

    client.on_ready = on_ready
    p0 = topo.path(0)
    client.connect(p0.client_addr, Endpoint(p0.server_addr, 443))
    topo.flap_path(0, at=outage_at)
    if second_outage:
        topo.flap_path(1, at=outage_at + 1.5)
    sim.run(until=40)
    assert done, "download did not complete"
    assert bytes(received) == payload  # exactly once, in order


@settings(max_examples=10, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 5000)),
                min_size=1, max_size=40))
def test_property_interleaved_streams_keep_integrity(schedule):
    """Arbitrary interleavings of four streams: each stream's bytes
    arrive in order and un-mixed."""
    sim, topo, cstack, sstack = make_net(n_paths=1, families=[4])
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    per_stream = {}

    def on_stream_data(stream):
        per_stream.setdefault(stream.stream_id, bytearray()).extend(
            stream.recv())

    conn = connect_tcpls(sim, topo, client)
    sessions[0].on_stream_data = on_stream_data
    streams = [client.create_stream(conn) for _ in range(4)]
    expected = {s.stream_id: bytearray() for s in streams}
    for index, size in schedule:
        marker = bytes([index]) * size
        streams[index].send(marker)
        expected[streams[index].stream_id] += marker
    sim.run(until=sim.now + 10)
    for stream_id, data in expected.items():
        assert bytes(per_stream.get(stream_id, b"")) == bytes(data)


@settings(max_examples=8, deadline=None)
@given(st.integers(1, 12))
def test_property_group_reassembles_under_any_path_count(n_chunk_kib):
    """Coupled-group delivery is byte-exact regardless of chunk sizing
    against a 2-path round-robin split."""
    sim, topo, cstack, sstack = make_net()
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    connect_tcpls(sim, topo, client)
    client.join(topo.path(1).client_addr)
    sim.run(until=sim.now + 0.3)
    received = bytearray()
    done = []

    def on_group_data(group):
        received.extend(group.recv())
        if group.complete:
            done.append(sim.now)

    sessions[0].on_group_data = on_group_data
    group = client.create_coupled_group(client.alive_connections())
    payload = bytes(range(256)) * (n_chunk_kib * 16)
    for offset in range(0, len(payload), 1024 * n_chunk_kib):
        group.send(payload[offset:offset + 1024 * n_chunk_kib])
    group.close()
    sim.run(until=sim.now + 20)
    assert done
    assert bytes(received) == payload


def test_fault_injection_random_loss_with_failover():
    """2% random loss on both paths + a blackhole: still exactly-once."""
    sim = Simulator(seed=33)
    topo = build_multipath(sim, n_paths=2)
    for path in topo.paths:
        path.c2s.loss_rate = 0.02
        path.s2c.loss_rate = 0.02
    cstack, sstack = TcpStack(sim, topo.client), TcpStack(sim, topo.server)
    server = TcplsServer(sim, sstack, 443, psk=PSK)
    size = 2 << 20
    payload = bytes(range(256)) * (size // 256)
    received = bytearray()

    def on_session(sess):
        sess.enable_failover()

        def on_stream_data(stream):
            if stream.recv().startswith(b"GET"):
                out = sess.create_stream(sess.conns[0])
                out.send(payload)
                out.close()
        sess.on_stream_data = on_stream_data

    server.on_session = on_session
    client = TcplsClient(sim, cstack, psk=PSK)
    client.auto_user_timeout = 0.25
    client.on_stream_data = lambda st: received.extend(st.recv())
    client.on_ready = lambda s: client.create_stream(
        client.conns[0]).send(b"GET /x")
    p0 = topo.path(0)
    client.connect(p0.client_addr, Endpoint(p0.server_addr, 443))
    topo.flap_path(0, at=1.0)
    sim.run(until=60)
    assert bytes(received) == payload


def test_fault_injection_forged_records_ignored():
    """An on-path attacker injecting bytes into the TCP stream cannot
    make the session accept data: forgeries count as demux drops and the
    connection-level damage is contained."""
    sim, topo, cstack, sstack = make_net(n_paths=1, families=[4])
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    conn = connect_tcpls(sim, topo, client)
    received = bytearray()
    sessions[0].on_stream_data = lambda st: received.extend(st.recv())
    stream = client.create_stream(conn)
    stream.send(b"legit")
    sim.run(until=sim.now + 0.3)
    # Attacker: craft a syntactically valid TLS record with garbage.
    from repro.tls.record import encode_record_header

    srv_session = sessions[0]
    fake = encode_record_header(23, 100) + b"\x00" * 100
    srv_conn = srv_session.conns[0]
    srv_session._process_record(srv_conn, fake)
    stream.send(b" more")
    sim.run(until=sim.now + 0.5)
    assert srv_session.stats["demux_drops"] >= 1
    assert bytes(received) == b"legit more"
