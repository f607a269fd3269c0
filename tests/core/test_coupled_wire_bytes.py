"""Coupled-group wire bytes, pinned.

No matrix family and no ledger workload carries a coupled group, so
these digests are what guards the group pump's wire format: a sha256
over every record each transport of both endpoints writes (in write
order, per transport) during two coupled uploads over two paths --
round-robin with record ACKs on and one path reset mid-transfer (SYNC
and replay included), and a replicating ``RedundantScheduler``.  A
refactor of the send path must leave them unchanged; a change of the
null-tag construction moves every tag, and with it both pins.
"""

import hashlib

from helpers import connect_tcpls, make_net, tcpls_pair

from repro.core.engine.policy import RedundantScheduler, RoundRobinScheduler

SIZE = 1 << 20

#: sha256 over the two uploads' per-transport write digests
ROUND_ROBIN_FAILOVER = (
    "77d0d1aa3d4a3c33d69d7d57bdb47ad12cb5fbf8c9f7f1c981457f1cd09d87e1")
REDUNDANT = (
    "6fba6bc4644904a8745ff522b8f91fc787c3a163bae79e48f1e59d6e345fdde8")


def _capture(conn, digests):
    """Hash every write ``conn``'s transport takes, in order."""
    digest = digests.setdefault(id(conn.tcp), hashlib.sha256())
    send = conn.tcp.send

    def hashed_send(data):
        digest.update(hashlib.sha256(bytes(data)).digest())
        return send(data)

    conn.tcp.send = hashed_send


def coupled_upload(scheduler, failover):
    """Upload SIZE bytes over a two-path group; returns the hex sha256
    of the per-transport write digests and whether the object arrived."""
    sim, topo, cstack, sstack = make_net()
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    connect_tcpls(sim, topo, client)
    client.join(topo.path(1).client_addr)
    sim.run(until=sim.now + 0.2)
    session = sessions[0]
    assert len(client.conns) == 2 and len(session.conns) == 2
    if failover:
        client.enable_failover()
        sim.run(until=sim.now + 0.05)
    digests = {}
    for conn in client.conns + session.conns:
        _capture(conn, digests)
    received = bytearray()
    session.on_group_data = lambda group: received.extend(group.recv())
    if failover:
        topo.rst_path(1, at=sim.now + 0.1, direction="c2s")
    group = client.create_coupled_group(client.alive_connections(),
                                        scheduler=scheduler)
    payload = bytes(range(256)) * (SIZE // 256)
    group.send(payload)
    group.close()
    sim.run(until=sim.now + 20)
    total = hashlib.sha256()
    for conn in client.conns + session.conns:
        total.update(digests[id(conn.tcp)].digest())
    return total.hexdigest(), bytes(received) == payload


def test_round_robin_group_with_failover_writes_pinned_bytes():
    digest, intact = coupled_upload(RoundRobinScheduler(), failover=True)
    assert intact
    assert digest == ROUND_ROBIN_FAILOVER


def test_redundant_group_writes_pinned_bytes():
    digest, intact = coupled_upload(RedundantScheduler(), failover=False)
    assert intact
    assert digest == REDUNDANT

