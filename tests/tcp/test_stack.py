"""TcpStack: listeners, demux, ports, MSS derivation."""

import pytest

from helpers import bulk_receiver, make_net

from repro.net.address import Endpoint


def test_double_listen_rejected():
    sim, topo, cstack, sstack = make_net(n_paths=1)
    sstack.listen(443, lambda c: None)
    with pytest.raises(ValueError):
        sstack.listen(443, lambda c: None)


def test_ephemeral_ports_unique():
    sim, topo, cstack, sstack = make_net(n_paths=1)
    sstack.listen(443, lambda c: None)
    p = topo.path(0)
    conns = [cstack.connect(p.client_addr, Endpoint(p.server_addr, 443))
             for _ in range(5)]
    ports = {c.local.port for c in conns}
    assert len(ports) == 5
    assert all(port >= 49152 for port in ports)


def test_mss_derived_from_link_mtu():
    sim, topo, cstack, sstack = make_net(n_paths=2, mtu=9000)
    p = topo.path(0)
    mss = cstack.mss_for(Endpoint(p.client_addr, 1), Endpoint(p.server_addr,
                                                              2))
    assert mss == 9000 - 20 - 20  # v4
    p6 = topo.path(1)
    mss6 = cstack.mss_for(Endpoint(p6.client_addr, 1),
                          Endpoint(p6.server_addr, 2))
    assert mss6 == 9000 - 40 - 20  # v6 header is larger


def test_concurrent_connections_demuxed_independently():
    sim, topo, cstack, sstack = make_net(n_paths=1)
    buffers = {}

    def on_accept(conn):
        key = conn.remote.port
        buffers[key] = bytearray()
        conn.on_data = lambda c, k=key: buffers[k].extend(c.recv())

    sstack.listen(443, on_accept)
    p = topo.path(0)
    conns = []
    for index in range(3):
        conn = cstack.connect(p.client_addr, Endpoint(p.server_addr, 443))
        conn.on_established = (
            lambda c, i=index: c.send(bytes([i]) * (1000 + i)))
        conns.append(conn)
    sim.run(until=5)
    values = sorted(bytes(b) for b in buffers.values())
    assert values == sorted(bytes([i]) * (1000 + i) for i in range(3))


def test_syn_to_closed_port_gets_rst():
    sim, topo, cstack, sstack = make_net(n_paths=1)
    p = topo.path(0)
    conn = cstack.connect(p.client_addr, Endpoint(p.server_addr, 81))
    outcome = []
    conn.on_reset = lambda c: outcome.append("rst")
    sim.run(until=2)
    assert outcome == ["rst"]


def test_stack_forgets_closed_connections():
    sim, topo, cstack, sstack = make_net(n_paths=1)
    on_accept, _ = bulk_receiver()

    def accept_and_close(conn):
        on_accept(conn)
        conn.on_close = lambda c: c.close()

    sstack.listen(443, accept_and_close)
    p = topo.path(0)
    conn = cstack.connect(p.client_addr, Endpoint(p.server_addr, 443))
    conn.on_established = lambda c: c.close()
    sim.run(until=10)
    assert cstack.connections() == []
    assert sstack.connections() == []


# ---------------------------------------------------------------------------
# Ephemeral port allocation and forget()
# ---------------------------------------------------------------------------


def test_ephemeral_port_wraps_at_range_end():
    from repro.tcp.stack import EPHEMERAL_PORT_BASE

    sim, topo, cstack, _ = make_net(n_paths=1)
    cstack._next_port = 65535
    assert cstack._allocate_port() == 65535
    assert cstack._allocate_port() == EPHEMERAL_PORT_BASE


def test_ephemeral_port_skips_ports_in_use():
    from repro.tcp.stack import EPHEMERAL_PORT_BASE

    sim, topo, cstack, _ = make_net(n_paths=1)
    base = EPHEMERAL_PORT_BASE
    # Occupy the next two ports with (fake) live connections and a
    # listener on the third; allocation must skip all of them.
    cstack._connections[("10.0.0.1", base, "10.0.0.2", 443)] = object()
    cstack._connections[("10.0.0.1", base + 1, "10.0.0.2", 443)] = object()
    cstack.listen(base + 2, lambda c: None)
    assert cstack._allocate_port() == base + 3


def test_ephemeral_port_collision_after_wrap():
    from repro.tcp.stack import EPHEMERAL_PORT_BASE

    sim, topo, cstack, _ = make_net(n_paths=1)
    base = EPHEMERAL_PORT_BASE
    cstack._connections[("10.0.0.1", base, "10.0.0.2", 443)] = object()
    cstack._next_port = 65535
    assert cstack._allocate_port() == 65535
    # Wrapped to base, which is in use -> base + 1.
    assert cstack._allocate_port() == base + 1


def test_ephemeral_port_exhaustion_raises():
    sim, topo, cstack, _ = make_net(n_paths=1)
    for port in range(49152, 65536):
        cstack._connections[("10.0.0.1", port, "10.0.0.2", 443)] = object()
    with pytest.raises(OSError):
        cstack._allocate_port()


def test_forget_unknown_connection_is_noop():
    sim, topo, cstack, sstack = make_net(n_paths=1)
    sstack.listen(443, lambda c: None)
    p = topo.path(0)
    conn = cstack.connect(p.client_addr, Endpoint(p.server_addr, 443))
    cstack.forget(conn)
    assert cstack.connections() == []
    # Forgetting a connection whose key is already gone must not raise.
    cstack.forget(conn)
    assert cstack.connections() == []


def test_demux_matches_addresses_by_value_not_identity():
    """The connection table is keyed by address objects; a packet whose
    addresses are equal but separately constructed (a middlebox copy, a
    re-parsed header) must still reach its connection."""
    from repro.net.address import IPAddress
    from repro.net.packet import Packet
    from repro.tcp.segment import Segment

    sim, topo, cstack, sstack = make_net(n_paths=1)
    sstack.listen(443, lambda c: None)
    p = topo.path(0)
    conn = cstack.connect(p.client_addr, Endpoint(p.server_addr, 443))
    sim.run(until=1)
    assert conn.state == "ESTABLISHED"
    before = conn.segments_received
    ack = Segment(443, conn.local.port, seq=conn.rcv_buf.rcv_nxt,
                  ack=conn.snd_nxt, flags={"ACK"})
    topo.client.receive(Packet(IPAddress(str(p.server_addr)),
                               IPAddress(str(p.client_addr)), "tcp", ack))
    assert conn.segments_received == before + 1
