"""Sec. 5.2 behaviours: fallback to TLS, middlebox traversal."""

import pytest

from helpers import connect_tcpls, make_net, tcpls_pair

from repro.net.address import Endpoint
from repro.net.middlebox import (
    NAT,
    OptionStrippingFirewall,
    Resegmenter,
    StatefulFirewall,
)


def test_plain_tls_server_triggers_implicit_fallback():
    """Server without TCPLS: the ServerHello simply omits the TCPLS
    extension and the client continues as TLS (stream 0 only)."""
    sim, topo, cstack, sstack = make_net()
    client, server, sessions = tcpls_pair(
        sim, topo, cstack, sstack, server_kwargs={"enable_tcpls": False})
    connect_tcpls(sim, topo, client)
    assert client.ready
    assert not client.tcpls_enabled
    assert client.cookies == []
    with pytest.raises(RuntimeError):
        client.join(topo.path(1).client_addr)


def test_legacy_server_rst_triggers_explicit_fallback():
    """Server aborting on unknown extensions: client retries a plain
    TLS handshake and connects."""
    sim, topo, cstack, sstack = make_net()
    client, server, sessions = tcpls_pair(
        sim, topo, cstack, sstack,
        server_kwargs={"strict_extensions": True, "enable_tcpls": False})
    ready = []
    client.on_ready = lambda s: ready.append(sim.now)
    p = topo.path(0)
    client.connect(p.client_addr, Endpoint(p.server_addr, 443))
    sim.run(until=3)
    assert ready, "fallback retry never connected"
    assert client.fell_back
    assert not client.tcpls_enabled


def test_fallback_session_still_carries_data():
    sim, topo, cstack, sstack = make_net()
    client, server, sessions = tcpls_pair(
        sim, topo, cstack, sstack, server_kwargs={"enable_tcpls": False})
    connect_tcpls(sim, topo, client)
    received = bytearray()
    sessions[0].on_stream_data = lambda st: received.extend(st.recv())
    # Stream 0 (the TLS application-data context) still works.
    from repro.core import record as rec

    client._send_typed(client.conns[0], rec.RECORD_TYPE_APPDATA,
                       b"plain tls data")
    sim.run(until=sim.now + 0.5)
    assert bytes(received) == b"plain tls data"


def test_tcpls_through_stateful_firewall():
    sim, topo, cstack, sstack = make_net()
    p = topo.path(0)
    p.c2s.add_middlebox(StatefulFirewall(sim=sim))
    p.s2c.add_middlebox(StatefulFirewall(sim=sim))
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    connect_tcpls(sim, topo, client)
    assert client.tcpls_enabled  # handshake unimpeded (Sec. 5.2)


def test_tcpls_through_option_stripping_firewall():
    """TCPLS control data lives in the payload; an option-stripping
    middlebox cannot touch it."""
    sim, topo, cstack, sstack = make_net()
    p = topo.path(0)
    p.c2s.add_middlebox(OptionStrippingFirewall())
    p.s2c.add_middlebox(OptionStrippingFirewall())
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    conn = connect_tcpls(sim, topo, client)
    client.set_user_timeout(conn, 2.0)   # conveyed in a record: survives
    received = bytearray()
    sessions[0].on_stream_data = lambda st: received.extend(st.recv())
    stream = client.create_stream(conn)
    stream.send(b"through the firewall" * 100)
    sim.run(until=sim.now + 2)
    assert bytes(received) == b"through the firewall" * 100
    assert sessions[0].conns[0].tcp.user_timeout == pytest.approx(2.0)


def test_tcpls_through_nat():
    sim, topo, cstack, sstack = make_net()
    from repro.net.address import IPAddress

    nat = NAT(IPAddress("198.51.100.7"))
    p = topo.path(0)
    p.c2s.add_middlebox(nat.outbound)
    p.s2c.add_middlebox(nat.inbound)
    # The server replies to the NAT's public address; route it back.
    topo.server.add_route(IPAddress("198.51.100.7"),
                          topo.server.interfaces[0])
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    connect_tcpls(sim, topo, client)
    received = bytearray()
    sessions[0].on_stream_data = lambda st: received.extend(st.recv())
    stream = client.create_stream(client.conns[0])
    stream.send(b"natted" * 1000)
    sim.run(until=sim.now + 2)
    assert bytes(received) == b"natted" * 1000
    # The server really saw the rewritten address.
    assert str(sessions[0].conns[0].tcp.remote.addr) == "198.51.100.7"


def test_tcpls_through_resegmenter():
    """Class (vi) interference: records are reassembled from the byte
    stream, so resegmentation is invisible to TCPLS."""
    sim, topo, cstack, sstack = make_net()
    topo.path(0).c2s.add_middlebox(Resegmenter(chunk=536))
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    connect_tcpls(sim, topo, client)
    received = bytearray()
    sessions[0].on_stream_data = lambda st: received.extend(st.recv())
    stream = client.create_stream(client.conns[0])
    stream.send(b"resegment-me" * 2000)
    sim.run(until=sim.now + 3)
    assert bytes(received) == b"resegment-me" * 2000
    assert sessions[0].stats["demux_drops"] == 0
