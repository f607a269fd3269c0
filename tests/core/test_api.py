"""The Fig. 5-style application API facade."""

import pytest

from helpers import make_net, tcpls_pair, PSK

from repro.core.api import TcplsConnection, tcpls_connect
from repro.net.address import Endpoint
from repro.core import SessionEvent, TcplsServer


def make_api(sim, topo, cstack, sstack, **kwargs):
    server = TcplsServer(sim, sstack, 443, psk=PSK)
    sessions = []
    server.on_session = sessions.append
    api = TcplsConnection(sim, cstack, psk=PSK, **kwargs)
    for path in topo.paths:
        api.add_address(path.client_addr)
        api.add_peer_address(path.server_addr, 443)
    return api, server, sessions


def test_connect_explicit_pair_and_events():
    sim, topo, cstack, sstack = make_net()
    api, server, sessions = make_api(sim, topo, cstack, sstack)
    events = []
    api.on("ready", lambda s: events.append("ready"))
    api.on("conn_established", lambda c: events.append("conn"))
    api.connect(src=topo.path(0).client_addr,
                dst=Endpoint(topo.path(0).server_addr, 443))
    sim.run(until=1)
    assert "ready" in events and "conn" in events


def test_unknown_event_rejected():
    sim, topo, cstack, sstack = make_net()
    api, _, _ = make_api(sim, topo, cstack, sstack)
    with pytest.raises(ValueError) as excinfo:
        api.on("no-such-event", lambda: None)
    assert ", ".join(e.name.lower() for e in SessionEvent) in str(
        excinfo.value)


@pytest.mark.parametrize("event", list(SessionEvent),
                         ids=lambda e: e.name.lower())
def test_every_session_event_can_be_subscribed(event):
    sim, topo, cstack, sstack = make_net()
    api, _, _ = make_api(sim, topo, cstack, sstack)
    seen = []
    assert api.on(event.name.lower(), lambda *args: seen.append(args)) is api
    api.session.emit(event, "arg")
    assert seen == [("arg",)]


def test_happy_eyeballs_races_address_pairs():
    """Fig. 5's example: two connections race; the winner carries the
    TCPLS handshake."""
    sim, topo, cstack, sstack = make_net(delays=[0.08, 0.005])
    api, server, sessions = make_api(sim, topo, cstack, sstack)
    ready = []
    api.on("ready", lambda s: ready.append(sim.now))
    api.connect(timeout=0.05)
    sim.run(until=2)
    assert ready
    # The v6 path (5 ms) won the race.
    winner = api.session.conns[0]
    assert winner.tcp.remote.addr.family == 6


def test_join_and_aggregate_via_api():
    sim, topo, cstack, sstack = make_net()
    api, server, sessions = make_api(sim, topo, cstack, sstack)
    api.connect(src=topo.path(0).client_addr,
                dst=Endpoint(topo.path(0).server_addr, 443))
    sim.run(until=1)
    api.join(src=topo.path(1).client_addr)
    sim.run(until=sim.now + 0.5)
    assert len(api.connections()) == 2
    received = bytearray()
    done = []
    sessions[0].on_group_data = lambda g: (
        received.extend(g.recv()),
        done.append(sim.now) if g.complete and not done else None)
    group = api.aggregate()
    group.send(b"agg" * 100000)
    group.close()
    sim.run(until=sim.now + 10)
    assert done and bytes(received) == b"agg" * 100000


def test_new_stream_and_tcp_info():
    sim, topo, cstack, sstack = make_net()
    api, server, sessions = make_api(sim, topo, cstack, sstack)
    api.connect(src=topo.path(0).client_addr,
                dst=Endpoint(topo.path(0).server_addr, 443))
    sim.run(until=1)
    stream = api.new_stream()
    got = bytearray()
    sessions[0].on_stream_data = lambda st: got.extend(st.recv())
    stream.send(b"api-data")
    sim.run(until=sim.now + 0.5)
    assert bytes(got) == b"api-data"
    info = api.tcp_info()
    assert info["state"] == "ESTABLISHED"
    assert "srtt" in info and "cwnd_bytes" in info


def test_failover_and_uto_via_api():
    sim, topo, cstack, sstack = make_net()
    api, server, sessions = make_api(sim, topo, cstack, sstack)
    api.connect(src=topo.path(0).client_addr,
                dst=Endpoint(topo.path(0).server_addr, 443))
    sim.run(until=1)
    api.enable_failover().set_user_timeout(0.25)
    sim.run(until=sim.now + 0.2)
    assert api.session.failover_enabled
    assert sessions[0].failover_enabled
    assert api.session.conns[0].tcp.user_timeout == pytest.approx(0.25)


def test_tcpls_connect_helper():
    sim, topo, cstack, sstack = make_net()
    server = TcplsServer(sim, sstack, 443, psk=PSK)
    server.on_session = lambda s: None
    p = topo.path(0)
    client = tcpls_connect(sim, cstack, p.client_addr,
                           Endpoint(p.server_addr, 443), PSK)
    sim.run(until=1)
    assert client.ready and client.tcpls_enabled
