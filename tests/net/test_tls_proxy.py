"""The TLS-terminating proxy of Sec. 5.2, as a real relay node."""

from helpers import PSK

from repro.core import TcplsClient, TcplsServer
from repro.core import record as rec
from repro.net import Simulator
from repro.net.address import Endpoint, IPAddress
from repro.net.host import Host
from repro.net.link import duplex_link
from repro.net.proxy import TlsTerminatingProxy
from repro.tcp import TcpStack


def proxied_network():
    """client -- proxy (transparently owning the server's address) --
    origin server."""
    sim = Simulator(seed=52)
    client = Host(sim, "client")
    proxy = Host(sim, "proxy")
    origin = Host(sim, "origin")

    c_addr = IPAddress("10.0.0.1")
    fake_server = IPAddress("10.0.0.2")      # proxy impersonates this
    p_up = IPAddress("10.1.0.1")
    o_addr = IPAddress("10.1.0.2")

    c2p, p2c = duplex_link(sim, client, proxy, rate_bps=25_000_000,
                           delay=0.005)
    p2o, o2p = duplex_link(sim, proxy, origin, rate_bps=25_000_000,
                           delay=0.005)
    ci = client.add_interface("c0", c_addr, tx_link=c2p)
    client.add_route(fake_server, ci)
    pi_down = proxy.add_interface("p0", fake_server, tx_link=p2c)
    pi_up = proxy.add_interface("p1", p_up, tx_link=p2o)
    proxy.add_route(c_addr, pi_down)
    proxy.add_route(o_addr, pi_up)
    oi = origin.add_interface("o0", o_addr, tx_link=o2p)
    origin.add_route(p_up, oi)

    cstack = TcpStack(sim, client)
    pstack = TcpStack(sim, proxy)
    ostack = TcpStack(sim, origin)
    return sim, (c_addr, fake_server, o_addr), cstack, pstack, ostack


def test_proxy_triggers_tcpls_fallback_and_relays_data():
    sim, (c_addr, fake_server, o_addr), cstack, pstack, ostack = \
        proxied_network()
    server = TcplsServer(sim, ostack, 443, psk=PSK)
    sessions = []
    origin_rx = bytearray()

    def on_session(sess):
        sessions.append(sess)

        def on_stream_data(stream):
            data = stream.recv()
            origin_rx.extend(data)
            reply = b"resp:" + data[:16]
            sess.pump.send_typed(sess.conns[0], rec.RECORD_TYPE_APPDATA,
                                 reply)
        sess.on_stream_data = on_stream_data

    server.on_session = on_session
    proxy = TlsTerminatingProxy(sim, pstack, 443,
                                Endpoint(o_addr, 443), psk=PSK)

    client = TcplsClient(sim, cstack, psk=PSK)
    client_rx = bytearray()
    client.on_stream_data = lambda st: client_rx.extend(st.recv())
    client.connect(c_addr, Endpoint(fake_server, 443))
    sim.run(until=2)

    # The paper's observed behaviour: the handshake completes, but the
    # proxy answered the ClientHello itself, so TCPLS is not negotiated.
    assert client.ready
    assert not client.tcpls_enabled
    assert proxy.sessions == 1

    # Plain-TLS application data still flows end to end through the two
    # re-encrypted legs.
    payload = b"through-the-proxy" * 200
    client.pump.send_typed(client.conns[0], rec.RECORD_TYPE_APPDATA,
                           payload)
    sim.run(until=sim.now + 2)
    assert bytes(origin_rx) == payload
    assert bytes(client_rx) == b"resp:" + payload[:16]
    assert proxy.relayed_client_to_origin >= len(payload)
    # The origin saw the proxy, not the client.
    assert str(sessions[0].conns[0].tcp.remote.addr) == "10.1.0.1"


def test_proxy_sessions_cannot_join():
    """Behind a TLS-terminating proxy the session is plain TLS: joins
    (which need the TCPLS cookie machinery) are unavailable."""
    import pytest

    sim, (c_addr, fake_server, o_addr), cstack, pstack, ostack = \
        proxied_network()
    TcplsServer(sim, ostack, 443, psk=PSK)
    TlsTerminatingProxy(sim, pstack, 443, Endpoint(o_addr, 443), psk=PSK)
    client = TcplsClient(sim, cstack, psk=PSK)
    client.connect(c_addr, Endpoint(fake_server, 443))
    sim.run(until=2)
    assert client.ready and not client.tcpls_enabled
    with pytest.raises(RuntimeError):
        client.join(c_addr)
