"""Hosts, routing, and the multipath topology builder."""

from repro.net import Simulator, build_multipath
from repro.net.address import Endpoint, IPAddress
from repro.net.packet import Packet
from repro.tcp.segment import Segment


def data_packet(src, dst, payload=b"x"):
    seg = Segment(src_port=1000, dst_port=2000, payload=payload)
    return Packet(src, dst, "tcp", seg)


def test_builder_creates_disjoint_dual_stack_paths():
    sim = Simulator()
    topo = build_multipath(sim, n_paths=2)
    assert topo.path(0).family == 4
    assert topo.path(1).family == 6
    assert len(topo.client.interfaces) == 2
    assert len(topo.server.interfaces) == 2
    assert topo.path(0).client_addr != topo.path(1).client_addr


def test_source_address_routing_pins_path():
    sim = Simulator()
    topo = build_multipath(sim, n_paths=2, families=[4, 4])
    p0, p1 = topo.path(0), topo.path(1)
    # Sending from path-1's source address must leave via path 1.
    packet = data_packet(p1.client_addr, p1.server_addr)
    assert topo.client.send(packet)
    sim.run()
    assert p1.c2s.stats.tx_packets == 1
    assert p0.c2s.stats.tx_packets == 0


def test_send_fails_without_route():
    sim = Simulator()
    topo = build_multipath(sim, n_paths=1)
    # Unknown destination AND a source the host does not own: no
    # source-routing shortcut applies and no route exists.
    packet = data_packet(IPAddress("192.0.2.1"), IPAddress("203.0.113.9"))
    assert topo.client.send(packet) is False


def test_send_fails_when_interface_down():
    sim = Simulator()
    topo = build_multipath(sim, n_paths=1)
    topo.client.interfaces[0].set_up(False)
    p = topo.path(0)
    assert topo.client.send(data_packet(p.client_addr, p.server_addr)) is False


def test_host_drops_foreign_packets():
    sim = Simulator()
    topo = build_multipath(sim, n_paths=1)
    received = []

    class Stack:
        def receive(self, packet):
            received.append(packet)

    topo.server.register_stack("tcp", Stack())
    p = topo.path(0)
    topo.client.send(data_packet(p.client_addr, p.server_addr))
    # A packet for an address the server does not own:
    topo.client.send(
        data_packet(p.client_addr, p.server_addr).copy()
    )
    foreign = data_packet(p.client_addr, IPAddress("10.0.0.99"))
    topo.client.add_route(IPAddress("10.0.0.99"),
                          topo.client.interfaces[0])
    topo.client.send(foreign)
    sim.run()
    assert len(received) == 2  # foreign packet silently ignored


def test_per_path_rate_and_delay_overrides():
    sim = Simulator()
    topo = build_multipath(sim, n_paths=2, rates=[10_000_000, 20_000_000],
                           delays=[0.01, 0.04])
    assert topo.path(0).c2s.rate_bps == 10_000_000
    assert topo.path(1).c2s.delay == 0.04


def test_blackhole_scripting():
    sim = Simulator()
    topo = build_multipath(sim, n_paths=1)
    p = topo.path(0)
    delivered = []

    class Stack:
        def receive(self, packet):
            delivered.append(sim.now)

    topo.server.register_stack("tcp", Stack())
    topo.flap_path(0, at=1.0, duration=1.0)
    for t in (0.5, 1.5, 2.5):
        sim.at(t, topo.client.send,
               data_packet(p.client_addr, p.server_addr))
    sim.run()
    assert len(delivered) == 2  # the t=1.5 packet vanished
