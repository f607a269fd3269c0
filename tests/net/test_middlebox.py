"""Middlebox interference models (Sec. 2's interference classes)."""

from repro.net import Simulator
from repro.net.address import IPAddress
from repro.net.link import Link
from repro.net.middlebox import (
    NAT,
    OptionStrippingFirewall,
    Resegmenter,
    RstInjector,
    StatefulFirewall,
)
from repro.net.packet import Packet
from repro.tcp.options import MssOption, UserTimeoutOption
from repro.tcp.segment import Segment


def tcp_packet(payload=b"", flags=("ACK",), options=(), seq=0,
               src="10.0.0.1", dst="10.0.0.2", sport=1000, dport=2000):
    seg = Segment(src_port=sport, dst_port=dport, seq=seq,
                  flags=frozenset(flags), options=options, payload=payload)
    return Packet(IPAddress(src), IPAddress(dst), "tcp", seg)


def run_through(sim, boxes, packets, mtu=1500):
    link = Link(sim, rate_bps=None, delay=0.0, mtu=mtu)
    delivered = []
    link.connect(delivered.append)
    for box in boxes:
        link.add_middlebox(box)
    for packet in packets:
        link.send(packet)
    sim.run()
    return delivered


def test_rst_injector_rewrites_one_packet():
    sim = Simulator()
    injector = RstInjector(active=True)
    out = run_through(sim, [injector], [tcp_packet(b"data"),
                                        tcp_packet(b"more")])
    assert len(out) == 2
    assert out[0].payload.is_rst
    assert not out[1].payload.is_rst  # one-shot


def test_option_stripping_firewall():
    sim = Simulator()
    firewall = OptionStrippingFirewall()
    packet = tcp_packet(options=(MssOption(1460), UserTimeoutOption(30)))
    (out,) = run_through(sim, [firewall], [packet])
    kinds = [o.kind for o in out.payload.options]
    assert kinds == [2]  # MSS survives, UTO (kind 28) stripped
    assert firewall.stripped == 1


def test_stateful_firewall_blocks_out_of_state():
    sim = Simulator()
    firewall = StatefulFirewall(sim=sim)
    no_syn = tcp_packet(b"x")
    assert run_through(sim, [firewall], [no_syn]) == []
    sim2 = Simulator()
    firewall2 = StatefulFirewall(sim=sim2)
    flow = [tcp_packet(flags=("SYN",)), tcp_packet(b"x")]
    assert len(run_through(sim2, [firewall2], flow)) == 2


def test_stateful_firewall_idle_timeout_rst():
    sim = Simulator()
    firewall = StatefulFirewall(sim=sim, idle_timeout=10.0)
    link = Link(sim, rate_bps=None, delay=0.0)
    delivered = []
    link.connect(delivered.append)
    link.add_middlebox(firewall)
    link.send(tcp_packet(flags=("SYN",)))
    sim.at(20.0, link.send, tcp_packet(b"late"))
    sim.run()
    assert delivered[1].payload.is_rst


def test_nat_rewrites_and_restores():
    sim = Simulator()
    nat = NAT(IPAddress("198.51.100.1"))
    out_link = Link(sim, rate_bps=None, delay=0.0)
    outbound = []
    out_link.connect(outbound.append)
    out_link.add_middlebox(nat.outbound)
    out_link.send(tcp_packet(b"req"))
    sim.run()
    (translated,) = outbound
    assert str(translated.src) == "198.51.100.1"
    assert translated.payload.src_port >= 40000

    # Reply path reverses the mapping.
    in_link = Link(sim, rate_bps=None, delay=0.0)
    inbound = []
    in_link.connect(inbound.append)
    in_link.add_middlebox(nat.inbound)
    reply = tcp_packet(b"resp", src="10.0.0.2", dst="198.51.100.1",
                       sport=2000, dport=translated.payload.src_port)
    in_link.send(reply)
    sim.run()
    (restored,) = inbound
    assert str(restored.dst) == "10.0.0.1"
    assert restored.payload.dst_port == 1000


def test_nat_drops_unsolicited_inbound():
    sim = Simulator()
    nat = NAT(IPAddress("198.51.100.1"))
    link = Link(sim, rate_bps=None, delay=0.0)
    inbound = []
    link.connect(inbound.append)
    link.add_middlebox(nat.inbound)
    link.send(tcp_packet(dst="198.51.100.1", dport=40001))
    sim.run()
    assert inbound == []


def test_resegmenter_preserves_bytestream():
    sim = Simulator()
    reseg = Resegmenter(chunk=500)
    packet = tcp_packet(payload=bytes(range(256)) * 6, seq=1000)  # 1536 B
    out = run_through(sim, [reseg], [packet], mtu=9000)
    assert len(out) == 4  # 500+500+500+36
    pieces = sorted((p.payload.seq, p.payload.payload) for p in out)
    reassembled = b"".join(data for _seq, data in pieces)
    assert reassembled == bytes(range(256)) * 6
    assert pieces[0][0] == 1000
