"""Joining TCP connections: SESSID + single-use cookies (Fig. 3)."""

import pytest

from helpers import connect_tcpls, make_net, tcpls_pair

from repro.core.engine.connection import ATTACHED
from repro.net.address import Endpoint
from repro.net.scenario import Scenario


def test_join_second_path():
    sim, topo, cstack, sstack = make_net()
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    connect_tcpls(sim, topo, client)
    joined = []
    client.on_join = joined.append
    cookies_before = len(client.cookies)
    client.join(topo.path(1).client_addr)
    sim.run(until=sim.now + 0.5)
    assert joined and joined[0].index == 1
    # One cookie consumed; the server then auto-replenished a batch.
    assert len(client.cookies) == cookies_before - 1 + 8
    assert len(sessions) == 1          # same session, not a new one
    assert len(sessions[0].conns) == 2
    # Both endpoints agree on the joined connection's wire identity.
    assert joined[0].conn_id == sessions[0].conns[1].conn_id != 0


def test_join_picks_family_matching_server_address():
    sim, topo, cstack, sstack = make_net()  # path 0 = v4, path 1 = v6
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    connect_tcpls(sim, topo, client)
    client.join(topo.path(1).client_addr)  # v6 local address
    sim.run(until=sim.now + 0.5)
    join_conn = client.conns[1]
    assert join_conn.tcp.remote.addr.family == 6


def test_cookie_budget_limits_joins():
    """By sending n cookies the server restricts the client to n joins
    (Sec. 3.3.2 resource-exhaustion defence)."""
    sim, topo, cstack, sstack = make_net(n_paths=4)
    client, server, sessions = tcpls_pair(
        sim, topo, cstack, sstack, server_kwargs={"cookie_batch": 1, "auto_replenish": False})
    connect_tcpls(sim, topo, client)
    assert len(client.cookies) == 1
    client.join(topo.path(1).client_addr)
    sim.run(until=sim.now + 0.5)
    with pytest.raises(RuntimeError, match="no join cookies"):
        client.join(topo.path(2).client_addr)


def test_forged_cookie_rejected():
    sim, topo, cstack, sstack = make_net()
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    connect_tcpls(sim, topo, client)
    client.cookies = [b"\x00" * 16]  # forged
    failures = []
    client.on_conn_failed = lambda c, r: failures.append((c.index, r))
    client.join(topo.path(1).client_addr)
    sim.run(until=sim.now + 1.0)
    assert failures and failures[0][0] == 1
    assert len(sessions[0].conns) == 1


def test_cookie_is_single_use():
    sim, topo, cstack, sstack = make_net(n_paths=3, families=[4, 4, 4])
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    connect_tcpls(sim, topo, client)
    used_cookie = client.cookies[0]
    client.join(topo.path(1).client_addr)
    sim.run(until=sim.now + 0.5)
    # Replay the same cookie on a third connection.
    client.cookies.insert(0, used_cookie)
    failures = []
    client.on_conn_failed = lambda c, r: failures.append(r)
    client.join(topo.path(2).client_addr)
    sim.run(until=sim.now + 1.0)
    assert failures
    assert len(sessions[0].conns) == 2


def test_unknown_sessid_rejected():
    sim, topo, cstack, sstack = make_net()
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    connect_tcpls(sim, topo, client)
    client.session_id = b"\xEE" * 16
    failures = []
    client.on_conn_failed = lambda c, r: failures.append(r)
    client.join(topo.path(1).client_addr)
    sim.run(until=sim.now + 1.0)
    assert failures


def test_server_can_issue_more_cookies():
    sim, topo, cstack, sstack = make_net(n_paths=3, families=[4, 6, 4])
    client, server, sessions = tcpls_pair(
        sim, topo, cstack, sstack, server_kwargs={"cookie_batch": 1, "auto_replenish": False})
    connect_tcpls(sim, topo, client)
    client.join(topo.path(1).client_addr)
    sim.run(until=sim.now + 0.5)
    assert not client.cookies
    server.issue_credentials(sessions[0], 2)
    sim.run(until=sim.now + 0.5)
    assert len(client.cookies) == 2
    client.join(topo.path(2).client_addr)
    sim.run(until=sim.now + 0.5)
    assert len(sessions[0].conns) == 3


def test_data_flows_on_joined_connection():
    sim, topo, cstack, sstack = make_net()
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    connect_tcpls(sim, topo, client)
    client.join(topo.path(1).client_addr)
    sim.run(until=sim.now + 0.5)
    received = bytearray()
    sessions[0].on_stream_data = lambda st: received.extend(st.recv())
    stream = client.create_stream(client.conns[1])
    stream.send(b"via-the-joined-path" * 500)
    sim.run(until=sim.now + 1.0)
    assert bytes(received) == b"via-the-joined-path" * 500
    assert topo.path(1).c2s.stats.tx_packets > 5  # really used path 1


@pytest.mark.parametrize("join_flight_lost", [False, True])
def test_join_that_overtakes_its_primary_attaches_after_it(join_flight_lost):
    """ROADMAP 1(a) without the loss lottery: the client's Finished is
    dropped on path 0, the client (ready) joins on path 1, the join
    completes first.  What it sends meanwhile waits unread in the
    transport -- or, its own Finished lost too, shares a read with it."""
    sim, topo, cstack, sstack = make_net()
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    server.on_session = lambda s: (
        sessions.append(s),
        setattr(s, "on_stream_data", lambda st: st.send(st.recv())))
    echoed = bytearray()
    client.on_stream_data = lambda st: echoed.extend(st.recv())
    script = Scenario().between(0.04, 0.06).loss(topo.path(0).c2s, 1.0)
    if join_flight_lost:
        script.between(0.08, 0.09).loss(topo.path(1).c2s, 1.0)
    script.install(sim)
    p = topo.path(0)
    client.connect(p.client_addr, Endpoint(p.server_addr, 443))
    sim.run(until=0.045)
    assert client.ready and not sessions    # Finished lost at ~0.0404 s
    join = client.join(topo.path(1).client_addr)
    sim.run(until=0.15)
    assert join.state == ATTACHED and not sessions      # the RTO resend is at ~0.28 s
    client.create_stream(join).send(b"sent before the server was up" * 300)
    sim.run(until=2.0)
    session, = sessions
    assert [c.conn_id for c in session.conns] == [0, join.conn_id]
    assert bytes(echoed) == b"sent before the server was up" * 300
    assert client.stats["demux_drops"] == session.stats["demux_drops"] == 0


@pytest.mark.parametrize("token_mode", [False, True], ids=["cookie", "token"])
def test_retired_session_refuses_joins(token_mode):
    """``retire`` revokes what is outstanding, whichever kind it is."""
    sim, topo, cstack, sstack = make_net()
    client, server, sessions = tcpls_pair(
        sim, topo, cstack, sstack, server_kwargs={"token_mode": token_mode})
    connect_tcpls(sim, topo, client)
    assert client.tokens if token_mode else client.cookies
    assert server.retire(sessions[0]) == 8
    assert not server.sessions and not server._credentials
    failures = []
    client.on_conn_failed = lambda c, r: failures.append(r)
    client.join(topo.path(1).client_addr)
    sim.run(until=sim.now + 1.0)
    assert failures and len(sessions[0].conns) == 1
