"""Link model: serialization, propagation, queueing, loss."""

import pytest

from repro.net import LinkFlap, Simulator
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.address import IPAddress


class FakePayload:
    def __init__(self, size):
        self.size = size

    def wire_size(self):
        return self.size


def make_packet(size=1480):
    return Packet(IPAddress("10.0.0.1"), IPAddress("10.0.0.2"), "tcp",
                  FakePayload(size - 20))


def test_propagation_delay_only():
    sim = Simulator()
    link = Link(sim, rate_bps=None, delay=0.05)
    arrivals = []
    link.connect(lambda pkt: arrivals.append(sim.now))
    link.send(make_packet())
    sim.run()
    assert arrivals == [pytest.approx(0.05)]


def test_serialization_delay():
    sim = Simulator()
    link = Link(sim, rate_bps=8_000_000, delay=0.0)  # 1 MB/s
    arrivals = []
    link.connect(lambda pkt: arrivals.append(sim.now))
    link.send(make_packet(1000))  # 1000 B at 1 MB/s = 1 ms
    sim.run()
    assert arrivals == [pytest.approx(0.001)]


def test_back_to_back_packets_queue():
    sim = Simulator()
    link = Link(sim, rate_bps=8_000_000, delay=0.0)
    arrivals = []
    link.connect(lambda pkt: arrivals.append(sim.now))
    for _ in range(3):
        link.send(make_packet(1000))
    sim.run()
    assert arrivals == [pytest.approx(0.001 * k) for k in (1, 2, 3)]


def test_drop_tail_queue_overflow():
    sim = Simulator()
    link = Link(sim, rate_bps=8_000_000, delay=0.0, queue_bytes=2500)
    arrivals = []
    link.connect(lambda pkt: arrivals.append(sim.now))
    for _ in range(5):
        link.send(make_packet(1000))
    sim.run()
    # ~2.5 KB of queue: the tail packets are dropped.
    assert link.stats.dropped_packets >= 2
    assert len(arrivals) + link.stats.dropped_packets == 5


def test_random_loss_uses_sim_rng():
    sim = Simulator(seed=1)
    link = Link(sim, rate_bps=None, delay=0.0, loss_rate=0.5)
    delivered = []
    link.connect(lambda pkt: delivered.append(pkt))
    for _ in range(200):
        link.send(make_packet())
    sim.run()
    assert 40 < len(delivered) < 160
    assert link.stats.dropped_packets == 200 - len(delivered)


def test_mtu_enforced():
    sim = Simulator()
    link = Link(sim, mtu=1500)
    link.connect(lambda pkt: None)
    with pytest.raises(ValueError):
        link.send(make_packet(3000))


def test_link_down_blackholes():
    sim = Simulator()
    link = Link(sim, rate_bps=None, delay=0.0)
    delivered = []
    link.connect(lambda pkt: delivered.append(pkt))
    link.add_fault(LinkFlap()).force(True)
    link.send(make_packet())
    sim.run()
    assert delivered == []
    assert link.stats.dropped_packets == 1


def test_stats_count_delivered_bytes():
    sim = Simulator()
    link = Link(sim, rate_bps=None, delay=0.0)
    link.connect(lambda pkt: None)
    packet = make_packet(500)
    link.send(packet)
    sim.run()
    assert link.stats.tx_packets == 1
    assert link.stats.tx_bytes == packet.wire_size()
