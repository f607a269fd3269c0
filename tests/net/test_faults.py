"""Adversarial conformance tests for the fault-injection layer.

Pins down the contracts the robustness experiments rely on: flap
windows are absolute (100% drop inside, 0% outside), Gilbert–Elliott
burst statistics match the configured chain, identical seeds replay
identical drop sequences, and every fault/middlebox drop is booked in
the link's loss accounting.
"""

import pytest

from repro.net import Simulator, Scenario, build_faulty_multipath
from repro.net.address import IPAddress
from repro.net.faults import (
    DROP,
    BitCorruption,
    BlackholeFault,
    GilbertElliott,
    LatencySpike,
    LinkFlap,
)
from repro.net.link import Link
from repro.net.middlebox import Blackhole
from repro.net.packet import Packet

pytestmark = pytest.mark.faults


class FakePayload:
    def __init__(self, size, data=b""):
        self.size = size
        self.payload = data

    def wire_size(self):
        return self.size

    def replace(self, payload):
        clone = FakePayload(self.size, payload)
        return clone


def make_packet(size=1480, data=b""):
    return Packet(IPAddress("10.0.0.1"), IPAddress("10.0.0.2"), "tcp",
                  FakePayload(size - 20, data))


def pump(sim, link, times):
    """Send one packet at each time in ``times``; returns arrival times."""
    arrivals = []
    link.connect(lambda pkt: arrivals.append(sim.now))
    for t in times:
        sim.at(t, link.send, make_packet())
    sim.run()
    return arrivals


# -- flap windows --------------------------------------------------------


def test_flap_drops_everything_inside_and_nothing_outside():
    sim = Simulator(seed=1)
    link = Link(sim, rate_bps=None, delay=0.0)
    link.add_fault(LinkFlap(windows=[(1.0, 2.0), (3.0, 4.0)]))
    times = [i * 0.1 for i in range(50)]  # 0.0 .. 4.9
    arrivals = pump(sim, link, times)
    inside = [t for t in times if 1.0 <= t < 2.0 or 3.0 <= t < 4.0]
    outside = [t for t in times if t not in inside]
    assert len(arrivals) == len(outside)          # 0% loss outside
    assert link.stats.dropped_packets == len(inside)   # 100% inside
    assert link.stats.dropped_by("flap") == len(inside)


def test_flap_window_boundaries_are_half_open():
    flap = LinkFlap(windows=[(1.0, 2.0)])
    assert not flap.down_at(0.999)
    assert flap.down_at(1.0)
    assert flap.down_at(1.999)
    assert not flap.down_at(2.0)


def test_flap_kills_in_flight_packets():
    """A packet sent before the outage but still in flight when it
    starts must die, exactly like with the Blackhole middlebox."""
    sim = Simulator(seed=1)
    link = Link(sim, rate_bps=None, delay=0.5)
    link.add_fault(LinkFlap(windows=[(1.2, 5.0)]))
    arrivals = pump(sim, link, [0.5, 1.0])  # arrive at 1.0, 1.5
    assert arrivals == [pytest.approx(1.0)]
    assert link.stats.dropped_by("flap") == 1


def test_blackhole_fault_is_open_ended():
    sim = Simulator(seed=1)
    link = Link(sim, rate_bps=None, delay=0.0)
    link.add_fault(BlackholeFault(start=2.0))
    arrivals = pump(sim, link, [0.0, 1.0, 2.0, 50.0, 1000.0])
    assert arrivals == [pytest.approx(0.0), pytest.approx(1.0)]
    assert link.stats.dropped_by("blackhole") == 3


def test_forced_flap_and_reopen():
    sim = Simulator(seed=1)
    link = Link(sim, rate_bps=None, delay=0.0)
    flap = link.add_fault(LinkFlap())
    flap.force(True)
    link.send(make_packet())
    flap.force(False)
    link.send(make_packet())
    sim.run()
    assert link.stats.tx_packets == 1
    assert link.stats.dropped_by("flap") == 1


# -- Gilbert–Elliott ------------------------------------------------------


def ge_drop_sequence(fault, n=1000):
    pkt = make_packet()
    return [fault.filter(pkt, 0.0) is DROP for _ in range(n)]


def test_gilbert_elliott_statistics_match_parameters():
    p_gb, p_bg = 0.05, 0.25
    fault = GilbertElliott(p_gb, p_bg, loss_bad=1.0, seed=42)
    seq = ge_drop_sequence(fault, n=20000)
    # Stationary bad-state share pi_B = p_gb / (p_gb + p_bg).
    expected_loss = p_gb / (p_gb + p_bg)
    observed_loss = sum(seq) / len(seq)
    assert observed_loss == pytest.approx(expected_loss, rel=0.15)
    # Mean bad-state run length is geometric: 1 / p_bg packets.
    assert fault.bursts > 100
    assert fault.mean_burst_length() == pytest.approx(1.0 / p_bg, rel=0.15)


def test_gilbert_elliott_produces_bursts_not_iid_loss():
    """Consecutive drops must be far more common than under i.i.d. loss
    of the same average rate."""
    fault = GilbertElliott(0.02, 0.3, loss_bad=1.0, seed=7)
    seq = ge_drop_sequence(fault, n=20000)
    loss = sum(seq) / len(seq)
    pairs = sum(1 for a, b in zip(seq, seq[1:]) if a and b)
    p_drop_after_drop = pairs / max(sum(seq), 1)
    # i.i.d. would give ~loss (~6%); the chain gives ~1 - p_bg (~70%).
    assert p_drop_after_drop > 3 * loss
    assert p_drop_after_drop == pytest.approx(1.0 - fault.p_bg, abs=0.1)


def test_identical_seeds_identical_drop_sequences():
    a = GilbertElliott(0.05, 0.25, seed=123)
    b = GilbertElliott(0.05, 0.25, seed=123)
    assert ge_drop_sequence(a) == ge_drop_sequence(b)
    c = GilbertElliott(0.05, 0.25, seed=124)
    assert ge_drop_sequence(a) != ge_drop_sequence(c)  # and seeds matter


def test_ge_outside_window_passes_and_freezes_chain():
    fault = GilbertElliott(0.5, 0.1, seed=1, start=10.0, end=20.0)
    pkt = make_packet()
    assert fault.filter(pkt, 9.99) is None
    assert fault.processed == 0  # chain did not advance
    fault.filter(pkt, 10.0)
    assert fault.processed == 1


def test_end_to_end_seed_reproducibility():
    """Two full simulator runs with the same seed produce identical
    link statistics; a different seed does not."""

    def run(seed):
        sim = Simulator(seed=seed)
        link = Link(sim, rate_bps=8_000_000, delay=0.01)
        link.add_fault(GilbertElliott(0.05, 0.25))
        link.add_fault(LatencySpike(0.02, start=0.5, end=1.0))
        got = []
        link.connect(lambda pkt: got.append(round(sim.now, 9)))
        for i in range(500):
            sim.at(i * 0.004, link.send, make_packet())
        sim.run()
        return got, link.stats.dropped_packets, dict(link.stats.drop_reasons)

    assert run(5) == run(5)
    assert run(5) != run(6)


# -- corruption and latency ----------------------------------------------


def test_corruption_drop_mode_counts_as_loss():
    sim = Simulator(seed=2)
    link = Link(sim, rate_bps=None, delay=0.0)
    fault = link.add_fault(BitCorruption(rate=0.3, seed=11))
    n = 2000
    arrivals = pump(sim, link, [i * 0.001 for i in range(n)])
    assert fault.corrupted == link.stats.dropped_by("corruption")
    assert len(arrivals) == n - fault.corrupted
    assert fault.corrupted == pytest.approx(0.3 * n, rel=0.2)


def test_corruption_deliver_mode_flips_exactly_one_bit():
    sim = Simulator(seed=2)
    link = Link(sim, rate_bps=None, delay=0.0)
    link.add_fault(BitCorruption(rate=1.0, mode="deliver", seed=3))
    delivered = []
    link.connect(delivered.append)
    original = bytes(100)
    link.send(make_packet(data=original))
    sim.run()
    assert len(delivered) == 1
    mutated = delivered[0].payload.payload
    diff = [i for i in range(len(original)) if mutated[i] != original[i]]
    assert len(diff) == 1
    xor = mutated[diff[0]] ^ original[diff[0]]
    assert xor and (xor & (xor - 1)) == 0  # exactly one bit


def test_latency_spike_adds_delay_and_keeps_fifo_order():
    sim = Simulator(seed=3)
    link = Link(sim, rate_bps=8_000_000_000, delay=0.010)
    link.add_fault(LatencySpike(0.100, start=0.0, end=0.05))
    arrivals = pump(sim, link, [0.0, 0.06])
    # First packet spiked (+100 ms), second sent after the window would
    # arrive earlier on its own; the FIFO clamp forbids the overtake.
    assert arrivals[0] == pytest.approx(0.110, abs=1e-3)
    assert arrivals[1] >= arrivals[0]


# -- loss accounting (regression for the goodput probes) ------------------


def test_middlebox_and_fault_drops_book_into_link_stats():
    sim = Simulator(seed=4)
    link = Link(sim, rate_bps=None, delay=0.0)
    hole = Blackhole(active=True)
    link.add_middlebox(hole)
    link.send(make_packet(1000))
    sim.run()
    assert link.stats.dropped_packets == 1
    assert link.stats.dropped_bytes == 1000
    assert link.stats.dropped_by("middlebox") == 1
    assert link.stats.tx_packets == 0

    hole.deactivate()
    link.add_fault(LinkFlap(windows=[(0.0, None)]))
    link.send(make_packet(500))
    sim.run()
    assert link.stats.dropped_packets == 2
    assert link.stats.dropped_bytes == 1500
    assert link.stats.dropped_by("flap") == 1


def test_drop_reasons_partition_total_drops():
    sim = Simulator(seed=4)
    link = Link(sim, rate_bps=None, delay=0.0, loss_rate=0.5)
    link.add_fault(BitCorruption(rate=0.2, seed=9))
    pump(sim, link, [i * 0.001 for i in range(1000)])
    assert sum(link.stats.drop_reasons.values()) == link.stats.dropped_packets
    assert link.stats.dropped_by("loss") > 0
    assert link.stats.dropped_by("corruption") > 0


# -- scenario DSL ---------------------------------------------------------


def test_scenario_flap_window_via_at():
    sim = Simulator(seed=5)
    link = Link(sim, rate_bps=None, delay=0.0)
    Scenario().at(1.0).flap(link, duration=1.0).install(sim)
    times = [0.5, 1.5, 2.5]
    arrivals = pump(sim, link, times)
    assert arrivals == [pytest.approx(0.5), pytest.approx(2.5)]


def test_scenario_between_loss_restores_previous_rate():
    sim = Simulator(seed=5)
    link = Link(sim, rate_bps=None, delay=0.0, loss_rate=0.0)
    scenario = Scenario().install(sim)
    scenario.between(1.0, 2.0).loss(link, 1.0)
    arrivals = pump(sim, link, [0.5, 1.5, 2.5])
    assert link.loss_rate == 0.0
    assert arrivals == [pytest.approx(0.5), pytest.approx(2.5)]
    assert link.stats.dropped_by("loss") == 1


def test_scenario_directives_queue_until_install():
    sim = Simulator(seed=5)
    fired = []
    scenario = Scenario()
    scenario.at(1.0).call(fired.append, "a")
    scenario.every(1.0, start=2.0, until=4.0).call(fired.append, "b")
    assert not fired
    scenario.install(sim)
    sim.run(until=10.0)
    assert fired == ["a", "b", "b", "b"]
    assert [t for t, _label in scenario.log] == [1.0, 2.0, 3.0, 4.0]


def test_scenario_applies_to_both_directions_of_a_path():
    sim = Simulator(seed=6)
    topo = build_faulty_multipath(sim, n_paths=2)
    topo.flap_path(0, at=0.0, duration=1.0)
    p0 = topo.path(0)
    assert topo.scenario.flap_fault(p0.c2s).down_at(0.5)
    assert topo.scenario.flap_fault(p0.s2c).down_at(0.5)
    assert not topo.scenario.flap_fault(p0.c2s).down_at(1.5)
    p1 = topo.path(1)
    assert not p1.c2s.faults  # untouched path has no scenario flap


# -- back-to-back bursts through faults and middleboxes -------------------


def send_burst(link, packets):
    """One sender emitting ``packets`` back to back at one instant."""
    for packet in packets:
        link.send(packet)


def test_train_survivors_keep_serialization_spacing():
    """Dropped entries must not leave holes in the wire schedule: the
    survivors of a corrupted burst stay spaced by serialization time."""
    sim = Simulator(seed=3)
    rate = 8_000_000  # 1480 B -> 1.48 ms per packet
    link = Link(sim, rate_bps=rate, delay=0.0)
    link.add_fault(BitCorruption(rate=0.4, seed=5))
    arrivals = []
    link.connect(lambda pkt: arrivals.append(sim.now))
    send_burst(link, [make_packet() for _ in range(32)])
    sim.run()
    assert 0 < len(arrivals) < 32  # some died, some survived
    ser = 1480 * 8.0 / rate
    for a, b in zip(arrivals, arrivals[1:]):
        assert b - a == pytest.approx(ser, rel=1e-9)


def test_train_through_rewriting_middlebox():
    """A rewriting box sees and rewrites each packet of a burst, in
    order."""

    class Rewriter:
        def __init__(self):
            self.seen = 0

        def attach(self, link):
            pass

        def process(self, packet):
            self.seen += 1
            packet.payload = packet.payload.replace(
                b"rewritten-%d" % self.seen)
            return packet

    sim = Simulator(seed=4)
    link = Link(sim, rate_bps=8_000_000, delay=0.001)
    box = Rewriter()
    link.add_middlebox(box)
    delivered = []
    link.connect(delivered.append)
    send_burst(link, [make_packet(data=b"original") for _ in range(6)])
    sim.run()
    assert box.seen == 6
    assert [p.payload.payload for p in delivered] == [
        b"rewritten-%d" % (i + 1) for i in range(6)]


def test_train_through_dropping_middlebox_books_drops():
    """A blackhole at delivery kills each packet of a burst and books
    every drop in the link stats."""
    sim = Simulator(seed=4)
    link = Link(sim, rate_bps=None, delay=0.0)
    link.add_middlebox(Blackhole(active=True))
    delivered = []
    link.connect(delivered.append)
    send_burst(link, [make_packet(1000) for _ in range(5)])
    sim.run()
    assert delivered == []
    assert link.stats.dropped_by("middlebox") == 5
    assert link.stats.dropped_bytes == 5000


def test_train_inflight_outage_kills_unfired_deliveries():
    """An outage that starts while a burst is serializing kills the
    deliveries still in flight and spares the ones already made."""
    sim = Simulator(seed=1)
    link = Link(sim, rate_bps=8_000_000, delay=0.0)  # 1.48 ms/packet
    link.add_fault(LinkFlap(windows=[(0.004, 1.0)]))
    delivered = []
    link.connect(delivered.append)
    send_burst(link, [make_packet() for _ in range(6)])
    sim.run()
    # Packets arriving at ~1.48/2.96 ms survive; >= 4.44 ms die.
    assert len(delivered) == 2
    assert link.stats.dropped_by("flap") == 4


def test_rotate_working_keeps_exactly_one_path_up():
    sim = Simulator(seed=6)
    topo = build_faulty_multipath(sim, n_paths=3)
    topo.rotate_working(1.0)
    for probe_t, expect_up in [(0.5, 0), (1.5, 1), (2.5, 2), (3.5, 0)]:
        sim.run(until=probe_t)
        states = [topo.scenario.flap_fault(p.c2s).forced_down
                  for p in topo.paths]
        assert states == [i != expect_up for i in range(3)]
