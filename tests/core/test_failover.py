"""Failover (Sec. 3.3.2, Fig. 4): ACKs, SYNC, replay, triggers."""

import pytest

from helpers import connect_tcpls, make_net, tcpls_pair


def download_setup(sim, topo, cstack, sstack, size, uto=0.25):
    """Server pushes ``size`` bytes to the client with failover enabled.

    Returns (client, sessions, received bytearray, done list).
    """
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    received = bytearray()
    done = []

    def on_session(sess):
        sessions.append(sess)
        sess.enable_failover()

        def on_stream_data(stream):
            request = stream.recv()
            if request.startswith(b"GET"):
                out = sess.create_stream(sess.conns[0])
                out.send(b"F" * size)
                out.close()
        sess.on_stream_data = on_stream_data

    server.on_session = on_session

    def on_client_stream(stream):
        received.extend(stream.recv())
        if len(received) >= size and not done:
            done.append(sim.now)

    client.on_stream_data = on_client_stream
    connect_tcpls(sim, topo, client)
    client.set_user_timeout(client.conns[0], uto)
    request = client.create_stream(client.conns[0])
    request.send(b"GET /file")
    return client, sessions, received, done


def test_blackhole_recovery_via_uto():
    sim, topo, cstack, sstack = make_net()
    size = 4 << 20
    client, sessions, received, done = download_setup(
        sim, topo, cstack, sstack, size)
    failures = []
    client.on_conn_failed = lambda c, r: failures.append((sim.now, r))
    topo.flap_path(0, at=1.0)
    sim.run(until=20)
    assert done, "transfer never completed"
    assert bytes(received) == b"F" * size
    assert failures and failures[0][1] == "uto"
    # UTO = 250 ms: detection within ~3x of it.
    assert failures[0][0] - 1.0 < 0.8
    assert topo.path(1).s2c.stats.tx_packets > 10  # moved to path 1


def test_rst_recovery_is_fast():
    sim, topo, cstack, sstack = make_net()
    size = 4 << 20
    client, sessions, received, done = download_setup(
        sim, topo, cstack, sstack, size)
    failures = []
    client.on_conn_failed = lambda c, r: failures.append((sim.now, r))
    topo.rst_path(0, at=1.0)
    sim.run(until=20)
    assert done and bytes(received) == b"F" * size
    assert failures and failures[0][1] == "rst"
    assert failures[0][0] == pytest.approx(1.0, abs=0.1)


def test_no_data_lost_or_duplicated_across_failover():
    sim, topo, cstack, sstack = make_net()
    size = 2 << 20
    client, sessions, received, done = download_setup(
        sim, topo, cstack, sstack, size)
    topo.flap_path(0, at=0.6)
    sim.run(until=20)
    assert len(received) == size
    assert bytes(received) == b"F" * size  # exactly once, in order


def test_sync_and_replay_stats():
    sim, topo, cstack, sstack = make_net()
    client, sessions, received, done = download_setup(
        sim, topo, cstack, sstack, 2 << 20)
    topo.flap_path(0, at=0.6)
    sim.run(until=20)
    server_session = sessions[0]
    assert server_session.stats["syncs_sent"] >= 1 or \
        client.stats["syncs_sent"] >= 1
    assert server_session.stats["records_replayed"] >= 1
    assert server_session.stats["failovers"] + client.stats[
        "failovers"] >= 1


def test_acks_prune_replay_buffer():
    sim, topo, cstack, sstack = make_net()
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    connect_tcpls(sim, topo, client)
    client.enable_failover()
    sim.run(until=sim.now + 0.2)
    stream = client.create_stream(client.conns[0])
    sessions[0].on_stream_data = lambda st: st.recv()
    stream.send(b"a" * (2 << 20))
    sim.run(until=sim.now + 5)
    # With ACKs every 16 records the sender must not hold ~128 records.
    assert len(stream.unacked) < 40
    assert sessions[0].stats["acks_sent"] > 3


def test_failover_disabled_means_no_acks():
    sim, topo, cstack, sstack = make_net()
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    connect_tcpls(sim, topo, client)
    stream = client.create_stream(client.conns[0])
    sessions[0].on_stream_data = lambda st: st.recv()
    stream.send(b"a" * (1 << 20))
    sim.run(until=sim.now + 3)
    assert sessions[0].stats["acks_sent"] == 0
    assert stream.unacked == []


def test_bidirectional_failover_replays_client_data():
    """The client was also sending when the path died; its unacked
    records must be replayed too."""
    sim, topo, cstack, sstack = make_net()
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    server_rx = bytearray()

    def on_session(sess):
        sessions.append(sess)
        sess.enable_failover()
        sess.on_stream_data = lambda st: server_rx.extend(st.recv())

    server.on_session = on_session
    connect_tcpls(sim, topo, client)
    client.set_user_timeout(client.conns[0], 0.25)
    stream = client.create_stream(client.conns[0])
    size = 2 << 20
    stream.send(b"C" * size)
    topo.flap_path(0, at=0.4)
    sim.run(until=20)
    assert bytes(server_rx) == b"C" * size
