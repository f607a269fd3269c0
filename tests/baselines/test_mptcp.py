"""MPTCP baseline: subflows, DSS reassembly, reinjection, path managers,
and the subflow lifecycle (one ``Subflow.state``, events instead of a
poll)."""

import pytest

from helpers import make_net

from repro.baselines.mptcp import CLOSED, FAILED, MptcpClient, MptcpServer
from repro.net import Simulator, build_faulty_multipath
from repro.obs import CaptureSink
from repro.tcp import TcpStack


def mptcp_pair(sim, topo, cstack, sstack, **client_kwargs):
    server = MptcpServer(sim, sstack, 443)
    connections = []
    server.on_connection = connections.append
    client = MptcpClient(sim, cstack, **client_kwargs)
    return client, server, connections


def pairs_for(topo, n=None):
    paths = topo.paths if n is None else topo.paths[:n]
    return [(p.client_addr, p.server_addr) for p in paths]


def collect(connections, received, done, sim):
    def hook(conn):
        def on_data(c):
            received.extend(c.recv())
            if c.complete and not done:
                done.append(sim.now)
        conn.on_data = on_data
    return hook


def test_single_subflow_transfer():
    sim, topo, cstack, sstack = make_net()
    client, server, conns = mptcp_pair(sim, topo, cstack, sstack)
    received, done = bytearray(), []
    server.on_connection = collect(conns, received, done, sim)
    client.connect(pairs_for(topo, 1), 443)
    payload = bytes(range(256)) * 4096
    client.on_established = lambda c: (c.send(payload), c.close())
    sim.run(until=20)
    assert done and bytes(received) == payload


def test_fullmesh_aggregates_two_paths():
    sim, topo, cstack, sstack = make_net()
    client, server, conns = mptcp_pair(sim, topo, cstack, sstack)
    received, done = bytearray(), []
    server.on_connection = collect(conns, received, done, sim)
    client.connect(pairs_for(topo), 443)
    size = 4 << 20
    client.on_established = lambda c: (c.send(b"m" * size), c.close())
    sim.run(until=30)
    assert done
    goodput = size * 8 / done[0] / 1e6
    assert goodput > 35  # clearly better than one 25 Mbps path
    assert topo.path(0).c2s.stats.tx_bytes > size // 4
    assert topo.path(1).c2s.stats.tx_bytes > size // 4


def test_backup_path_unused_until_failure():
    sim, topo, cstack, sstack = make_net()
    client, server, conns = mptcp_pair(sim, topo, cstack, sstack,
                                       path_manager="backup")
    received, done = bytearray(), []
    server.on_connection = collect(conns, received, done, sim)
    client.connect(pairs_for(topo), 443)
    size = 2 << 20
    client.on_established = lambda c: (c.send(b"b" * size), c.close())
    sim.run(until=1.0)
    # Path 1 carries only its handshake + token, no bulk data.
    assert topo.path(1).c2s.stats.tx_bytes < 2000
    sim.run(until=30)
    assert done and bytes(received) == b"b" * size


def test_backup_failover_on_blackhole():
    sim, topo, cstack, sstack = make_net()
    client, server, conns = mptcp_pair(sim, topo, cstack, sstack,
                                       path_manager="backup")
    received, done = bytearray(), []
    server.on_connection = collect(conns, received, done, sim)
    failures = []
    client.on_subflow_ended = lambda sf, r: failures.append((sim.now, r))
    client.connect(pairs_for(topo), 443)
    size = 8 << 20
    client.on_established = lambda c: (c.send(b"f" * size), c.close())
    topo.flap_path(0, at=1.0)
    sim.run(until=60)
    assert done, "transfer stalled after blackhole"
    assert bytes(received) == b"f" * size
    assert failures and failures[0][1] == "stall"
    # Blackhole detection needs RTO backoff: slower than TCPLS's UTO.
    assert failures[0][0] - 1.0 > 0.5


def test_rst_kills_subflow_immediately():
    sim, topo, cstack, sstack = make_net()
    client, server, conns = mptcp_pair(sim, topo, cstack, sstack)
    received, done = bytearray(), []
    server.on_connection = collect(conns, received, done, sim)
    failures = []
    client.on_subflow_ended = lambda sf, r: failures.append((sim.now, r))
    client.connect(pairs_for(topo), 443)
    size = 4 << 20
    client.on_established = lambda c: (c.send(b"r" * size), c.close())
    topo.rst_path(0, at=0.5)
    sim.run(until=60)
    assert done and bytes(received) == b"r" * size
    assert failures and failures[0][1] == "rst"
    assert failures[0][0] == pytest.approx(0.5, abs=0.1)


def test_repeated_rst_blacklists_address_pair():
    """The paper observed MPTCP stalling after repeated RSTs: the model
    gives up re-creating subflows to a twice-reset pair."""
    sim, topo, cstack, sstack = make_net()
    client, server, conns = mptcp_pair(sim, topo, cstack, sstack)
    client.connect(pairs_for(topo, 1), 443)
    sim.run(until=1)
    subflow = client.subflows[0]
    client._end_subflow(subflow, FAILED, "rst")
    again = client.open_subflow(subflow.pair[0],
                                __import__("repro.net.address",
                                           fromlist=["Endpoint"]).Endpoint(
                                    subflow.pair[1], 443))
    assert again is not None
    client._end_subflow(again, FAILED, "rst")
    third = client.open_subflow(subflow.pair[0],
                                __import__("repro.net.address",
                                           fromlist=["Endpoint"]).Endpoint(
                                    subflow.pair[1], 443))
    assert third is None  # blacklisted


def test_add_local_address_after_config_delay():
    """Fig. 11: the second interface appears mid-transfer and becomes a
    subflow only after the kernel's configuration delay."""
    sim, topo, cstack, sstack = make_net()
    client, server, conns = mptcp_pair(sim, topo, cstack, sstack,
                                       config_delay=1.0)
    received, done = bytearray(), []
    server.on_connection = collect(conns, received, done, sim)
    client.connect(pairs_for(topo, 1), 443)
    size = 12 << 20
    client.on_established = lambda c: (c.send(b"h" * size), c.close())
    sim.at(2.0, client.add_local_address, topo.path(1).client_addr)
    sim.run(until=60)
    assert done and bytes(received) == b"h" * size
    assert len(client.subflows) == 2
    # The second path saw no data before ~3 s (2 s event + 1 s delay).
    assert topo.path(1).c2s.stats.tx_bytes > size // 8


def test_data_acks_prune_sender_state():
    sim, topo, cstack, sstack = make_net()
    client, server, conns = mptcp_pair(sim, topo, cstack, sstack)
    server.on_connection = lambda conn: setattr(
        conn, "on_data", lambda c: c.recv())
    client.connect(pairs_for(topo, 1), 443)
    client.on_established = lambda c: c.send(b"a" * (1 << 20))
    sim.run(until=20)
    assert len(client.unacked) < 200


def test_a_subflow_that_never_establishes_is_given_up():
    """Every subflow the client opens gets the ``reopen_interval``
    deadline.  A full-mesh subflow whose SYN goes into a dead path used
    to count as an attempt in progress until its SYN retries ran out
    (minutes), so when the established subflow failed, the path manager
    opened nothing and the upload stalled (as the Fig. 9 MPTCP cell
    did)."""
    sim = Simulator(seed=1)
    topo = build_faulty_multipath(sim, n_paths=2)
    server = MptcpServer(sim, TcpStack(sim, topo.server), 443)
    received, done = bytearray(), []
    server.on_connection = collect([], received, done, sim)
    client = MptcpClient(sim, TcpStack(sim, topo.client))
    topo.set_path_down(1)
    topo.flap_path(0, at=0.2, duration=2.0)
    client.connect(pairs_for(topo), 443)
    client.on_established = lambda c: (c.send(b"m" * (1 << 20)), c.close())
    sim.run(until=client.reopen_interval + 0.01)
    dead = client.subflows[1]
    assert dead.state == FAILED and dead.tcp.state == "CLOSED"
    sim.run(until=10.0)
    assert done and len(received) == 1 << 20


def faulty_pair(n_paths):
    """Seed-1 faulty topology with an MPTCP server collecting what
    arrives: (sim, topo, client, server connections, received, done)."""
    sim = Simulator(seed=1)
    topo = build_faulty_multipath(sim, n_paths=n_paths)
    server = MptcpServer(sim, TcpStack(sim, topo.server), 443)
    conns, received, done = [], bytearray(), []
    hook = collect(conns, received, done, sim)

    def on_connection(conn):
        conns.append(conn)
        hook(conn)
    server.on_connection = on_connection
    client = MptcpClient(sim, TcpStack(sim, topo.client))
    return sim, topo, client, conns, received, done


def test_a_subflow_the_peer_closes_is_replaced():
    """Item 1(d): a peer FIN ends the subflow as CLOSED.  It used to
    clear only ``established``, so the subflow counted as an attempt in
    progress forever: when path 1 then blackholed, the path manager
    opened nothing and 19,012,240 of 67,108,864 bytes arrived by 60 s."""
    sim, topo, client, conns, received, done = faulty_pair(2)
    client.connect(pairs_for(topo), 443)
    size = 64 << 20
    client.on_established = lambda c: (c.send(b"d" * size), c.close())

    def server_closes_path_0():
        subflow = conns[0].subflows[0]
        subflow.state = CLOSED
        subflow.tcp.close()
    sim.at(3.0, server_closes_path_0)
    topo.flap_path(1, at=3.5, duration=30.0)
    sim.run(until=60)
    assert len(received) == size
    assert done[0] == pytest.approx(21.40, abs=0.01)
    closed, stalled, reopened = client.subflows
    assert (closed.state, stalled.state, reopened.state) == (
        CLOSED, FAILED, "up")
    assert reopened.pair == closed.pair


def test_a_stall_is_seen_at_the_rto_that_makes_it():
    """The subflow fails as ``stall`` inside the retransmission timeout
    that reaches ``RTO_FAIL_BACKOFF`` backoffs, not on a later poll tick
    (it failed at 1.720028 s, the next 100 ms tick)."""
    sim, topo, client, _conns, _received, _done = faulty_pair(1)
    sink = CaptureSink()
    sim.bus.subscribe(sink, categories=("tcp",))
    ended = []
    client.on_subflow_ended = lambda sf, r: ended.append((sim.now, r))
    client.connect(pairs_for(topo), 443)
    client.on_established = lambda c: (c.send(b"s" * (4 << 20)), c.close())
    topo.flap_path(0, at=0.3)
    sim.run(until=3.0)
    rtos = sink.select(name="rto", conn=client.subflows[0].tcp.conn_id)
    third = rtos[2]
    assert third.data["backoff"] == 2
    assert third.time == pytest.approx(1.699908, abs=1e-6)
    assert ended[0] == (third.time, "stall")


def test_an_idle_pair_has_nothing_scheduled():
    """Nothing polls: once the upload is done, neither end keeps an
    event on the heap (both ends re-armed a 100 ms monitor until 60 s)."""
    sim, topo, client, _conns, received, done = faulty_pair(2)
    client.connect(pairs_for(topo, 1), 443)
    client.on_established = lambda c: (c.send(b"i" * (1 << 20)), c.close())
    sim.run(until=5.0)
    assert done and len(received) == 1 << 20
    assert sim.pending_events == 0
