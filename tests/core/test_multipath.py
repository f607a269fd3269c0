"""Coupled streams: aggregation, steering, migration (Sec. 3.3.3)."""

import pytest

from helpers import connect_tcpls, make_net, tcpls_pair

from repro.core.engine.policy import LowestRttScheduler


def join_second_path(sim, topo, client):
    client.join(topo.path(1).client_addr)
    sim.run(until=sim.now + 0.2)
    assert len(client.conns) == 2 and client.conns[1].usable()


def test_aggregation_uses_both_paths():
    sim, topo, cstack, sstack = make_net()
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    connect_tcpls(sim, topo, client)
    join_second_path(sim, topo, client)
    received = bytearray()
    done = []
    size = 4 << 20

    def on_group_data(group):
        received.extend(group.recv())
        if group.complete:
            done.append(sim.now)

    sessions[0].on_group_data = on_group_data
    start = sim.now
    group = client.create_coupled_group(client.alive_connections())
    payload = bytes(range(256)) * (size // 256)
    group.send(payload)
    group.close()
    sim.run(until=start + 30)
    assert done and bytes(received) == payload
    duration = done[0] - start
    goodput_mbps = size * 8 / duration / 1e6
    # Two 25 Mbps paths: aggregation must clearly beat a single path.
    assert goodput_mbps > 35
    assert topo.path(0).c2s.stats.tx_bytes > size // 4
    assert topo.path(1).c2s.stats.tx_bytes > size // 4


def test_single_path_group_baseline():
    sim, topo, cstack, sstack = make_net()
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    connect_tcpls(sim, topo, client)
    received = bytearray()
    done = []

    def on_group_data(group):
        received.extend(group.recv())
        if group.complete:
            done.append(sim.now)

    sessions[0].on_group_data = on_group_data
    start = sim.now
    group = client.create_coupled_group([client.conns[0]])
    group.send(b"s" * (2 << 20))
    group.close()
    sim.run(until=start + 30)
    assert done
    goodput = (2 << 20) * 8 / (done[0] - start) / 1e6
    assert 15 < goodput <= 25.1  # one 25 Mbps path


def test_reorder_heap_depth_bounded():
    sim, topo, cstack, sstack = make_net()
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    connect_tcpls(sim, topo, client)
    join_second_path(sim, topo, client)
    sessions[0].on_group_data = lambda g: g.recv()
    group = client.create_coupled_group(client.alive_connections())
    group.send(b"r" * (2 << 20))
    group.close()
    sim.run(until=sim.now + 20)
    server_group = list(sessions[0].groups.values())[0]
    assert server_group.reorder.out_of_order > 0   # reordering happened
    assert server_group.reorder.max_depth < 64     # and stayed bounded


def test_aggregation_with_asymmetric_paths_lowest_rtt():
    sim, topo, cstack, sstack = make_net(delays=[0.01, 0.04],
                                         rates=[25_000_000, 25_000_000])
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    connect_tcpls(sim, topo, client)
    join_second_path(sim, topo, client)
    received = bytearray()
    done = []

    def on_group_data(group):
        received.extend(group.recv())
        if group.complete:
            done.append(sim.now)

    sessions[0].on_group_data = on_group_data
    start = sim.now
    group = client.create_coupled_group(client.alive_connections(),
                                        scheduler=LowestRttScheduler())
    group.send(b"a" * (3 << 20))
    group.close()
    sim.run(until=start + 30)
    assert done and len(received) == 3 << 20


def test_migration_add_then_remove_path():
    """The Fig. 10 pattern: a download migrates from path 0 to path 1
    through a coupled window, sustaining goodput."""
    sim, topo, cstack, sstack = make_net()
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    received = bytearray()
    done = []
    size = 6 << 20

    def on_session(sess):
        sessions.append(sess)

        def on_stream_data(stream):
            if stream.recv().startswith(b"GET"):
                group = sess.create_coupled_group([sess.conns[0]])
                sess._fig10_group = group
                group.send(b"M" * size)
                group.close()
        sess.on_stream_data = on_stream_data

    server.on_session = on_session
    client.on_group_data = lambda g: (
        received.extend(g.recv()),
        done.append(sim.now) if g.complete and not done else None,
    )
    connect_tcpls(sim, topo, client)
    request = client.create_stream(client.conns[0])
    request.send(b"GET /file")
    join_second_path(sim, topo, client)
    start = sim.now

    def migrate():
        srv = sessions[0]
        group = srv._fig10_group
        old_stream = group.streams[0]
        srv.add_group_stream(group, srv.conns[1])
        # Coupled window: both paths carry records briefly, then the
        # old path is dropped.
        sim.schedule(0.5, lambda: srv.remove_group_stream(group,
                                                          old_stream))

    sim.at(start + 1.0, migrate)
    sim.run(until=start + 30)
    assert done and len(received) == size
    assert bytes(received) == b"M" * size
    # After migration both paths have moved real data.
    assert topo.path(1).s2c.stats.tx_bytes > (1 << 20)


def test_steer_uncoupled_stream_between_paths():
    sim, topo, cstack, sstack = make_net()
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    connect_tcpls(sim, topo, client)
    join_second_path(sim, topo, client)
    received = bytearray()
    sessions[0].on_stream_data = lambda st: received.extend(st.recv())
    stream = client.create_stream(client.conns[0])
    stream.send(b"1" * 300000)
    sim.run(until=sim.now + 0.6)
    client.steer_stream(stream, client.conns[1])
    stream.send(b"2" * 300000)
    sim.run(until=sim.now + 3)
    data = bytes(received)
    assert len(data) == 600000
    assert data == b"1" * 300000 + b"2" * 300000
    assert topo.path(1).c2s.stats.tx_bytes > 100000
