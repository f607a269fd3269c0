"""MPTCP baseline: subflows, DSS reassembly, reinjection, path managers."""

import pytest

from helpers import make_net

from repro.baselines.mptcp import MptcpClient, MptcpServer


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
    client.on_subflow_failed = lambda sf, r: failures.append((sim.now, r))
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
    client.on_subflow_failed = lambda sf, r: failures.append((sim.now, r))
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
    client._on_subflow_failed(subflow, "rst")
    again = client.open_subflow(subflow.pair[0],
                                __import__("repro.net.address",
                                           fromlist=["Endpoint"]).Endpoint(
                                    subflow.pair[1], 443))
    assert again is not None
    client._on_subflow_failed(again, "rst")
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
