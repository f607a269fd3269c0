"""Invariant checkers: each one must fire on a deliberately broken
event stream (the negative tests) and stay silent on a clean one."""

import pytest

from repro.net import Simulator
from repro.net.address import IPAddress
from repro.net.link import Link
from repro.net.packet import Packet
from repro.obs import (
    CwndSanityChecker,
    FailoverSanityChecker,
    InvariantViolationError,
    LinkConservationChecker,
    MonotoneSeqChecker,
    NonceUniquenessChecker,
    arm_invariants,
)
from repro.tcp.segment import Segment

pytestmark = pytest.mark.obs


def armed(checker_cls, strict=False):
    """(sim, harness, the single checker instance)."""
    sim = Simulator()
    harness = arm_invariants(sim, checkers=(checker_cls,), strict=strict)
    return sim, harness, harness.checkers[0]


# -- MonotoneSeqChecker ------------------------------------------------------

def test_monotone_seq_accepts_dense_sequences():
    sim, harness, _ = armed(MonotoneSeqChecker)
    for stream in (1, 2):
        for seq in range(5):
            sim.bus.emit("tls", "record_sealed",
                         {"session": 0, "stream": stream, "seq": seq})
    harness.assert_clean()


def test_monotone_seq_fires_on_regression():
    sim, harness, checker = armed(MonotoneSeqChecker)
    for seq in (0, 1, 2, 1):     # rewound crypto context
        sim.bus.emit("tls", "record_sealed",
                     {"session": 0, "stream": 1, "seq": seq})
    (violation,) = checker.violations
    assert violation.invariant == "monotone-seq"
    assert violation.details["seq"] == 1
    assert violation.details["expected"] == 3
    with pytest.raises(InvariantViolationError):
        harness.assert_clean()


def test_monotone_seq_fires_on_gap():
    sim, _harness, checker = armed(MonotoneSeqChecker)
    for seq in (0, 2):           # seq 1 never sealed
        sim.bus.emit("tls", "record_sealed",
                     {"session": 0, "stream": 1, "seq": seq})
    assert checker.violations


# -- NonceUniquenessChecker --------------------------------------------------

def test_nonce_unique_fires_on_reseal():
    sim, _harness, checker = armed(NonceUniquenessChecker)
    event = {"session": 0, "stream": 3, "seq": 7}
    sim.bus.emit("tls", "record_sealed", dict(event))
    assert not checker.violations
    sim.bus.emit("tls", "record_sealed", dict(event))
    (violation,) = checker.violations
    assert violation.invariant == "nonce-unique"
    assert "reuse" in violation.message


def test_nonce_unique_distinguishes_streams():
    """Same seq on different streams is fine — per-stream IVs make the
    nonces distinct (paper Fig. 2)."""
    sim, harness, _ = armed(NonceUniquenessChecker)
    sim.bus.emit("tls", "record_sealed", {"session": 0, "stream": 1, "seq": 0})
    sim.bus.emit("tls", "record_sealed", {"session": 0, "stream": 2, "seq": 0})
    sim.bus.emit("tls", "record_sealed", {"session": 1, "stream": 1, "seq": 0})
    harness.assert_clean()


# -- CwndSanityChecker -------------------------------------------------------

def test_cwnd_sane_fires_on_non_positive_cwnd():
    sim, _harness, checker = armed(CwndSanityChecker)
    sim.bus.emit("tcp", "cwnd_updated",
                 {"conn": 1, "cwnd": 0, "ssthresh": None, "min_cwnd": 2})
    (violation,) = checker.violations
    assert violation.invariant == "cwnd-sane"
    assert "not positive" in violation.message


def test_cwnd_sane_fires_on_collapsed_ssthresh():
    sim, _harness, checker = armed(CwndSanityChecker)
    sim.bus.emit("tcp", "cwnd_updated",
                 {"conn": 1, "cwnd": 10, "ssthresh": 1, "min_cwnd": 2})
    (violation,) = checker.violations
    assert "ssthresh" in violation.message


def test_cwnd_sane_accepts_infinite_ssthresh_as_none():
    sim, harness, _ = armed(CwndSanityChecker)
    sim.bus.emit("tcp", "cwnd_updated",
                 {"conn": 1, "cwnd": 10, "ssthresh": None, "min_cwnd": 2})
    sim.bus.emit("tcp", "cwnd_updated",
                 {"conn": 1, "cwnd": 4, "ssthresh": 5, "min_cwnd": 2})
    harness.assert_clean()


# -- FailoverSanityChecker ---------------------------------------------------

def test_failover_legal_accepts_established_target():
    sim, harness, _ = armed(FailoverSanityChecker)
    sim.bus.emit("session", "conn_established", {"session": 0, "conn": 1})
    sim.bus.emit("session", "join", {"session": 0, "conn": 2})
    sim.bus.emit("session", "conn_failed",
                 {"session": 0, "conn": 1, "reason": "uto"})
    sim.bus.emit("recovery", "failover", {"session": 0, "from": 1, "to": 2})
    harness.assert_clean()


def test_failover_fires_on_self_target():
    sim, _harness, checker = armed(FailoverSanityChecker)
    sim.bus.emit("session", "conn_established", {"session": 0, "conn": 1})
    sim.bus.emit("recovery", "failover", {"session": 0, "from": 1, "to": 1})
    assert checker.violations
    assert checker.violations[0].invariant == "failover-legal"


def test_failover_fires_on_failed_target():
    sim, _harness, checker = armed(FailoverSanityChecker)
    for conn in (1, 2):
        sim.bus.emit("session", "conn_established",
                     {"session": 0, "conn": conn})
    sim.bus.emit("session", "conn_failed",
                 {"session": 0, "conn": 2, "reason": "rst"})
    sim.bus.emit("recovery", "failover", {"session": 0, "from": 1, "to": 2})
    (violation,) = checker.violations
    assert "onto failed" in violation.message


def test_failover_fires_on_never_established_target():
    sim, _harness, checker = armed(FailoverSanityChecker)
    sim.bus.emit("session", "conn_established", {"session": 0, "conn": 1})
    sim.bus.emit("recovery", "failover", {"session": 0, "from": 1, "to": 9})
    (violation,) = checker.violations
    assert "never-established" in violation.message


def test_failover_tracks_sessions_independently():
    """conn 2 established on session 0 does not legalise a failover onto
    conn 2 of session 1."""
    sim, _harness, checker = armed(FailoverSanityChecker)
    sim.bus.emit("session", "conn_established", {"session": 0, "conn": 2})
    sim.bus.emit("session", "conn_established", {"session": 1, "conn": 1})
    sim.bus.emit("recovery", "failover", {"session": 1, "from": 1, "to": 2})
    assert checker.violations


# -- LinkConservationChecker -------------------------------------------------

def test_link_conservation_accepts_balanced_flow():
    sim, harness, _ = armed(LinkConservationChecker)
    for _ in range(3):
        sim.bus.emit("link", "enqueue", {"link": "l0", "bytes": 100})
    sim.bus.emit("link", "deliver", {"link": "l0", "bytes": 100})
    sim.bus.emit("link", "drop", {"link": "l0", "bytes": 100,
                                  "reason": "loss"})
    sim.schedule(1.0, lambda: None)     # the third packet's delivery
    harness.assert_clean()      # one packet legitimately still in flight


def test_link_conservation_fires_on_packet_creation():
    sim, _harness, checker = armed(LinkConservationChecker)
    sim.bus.emit("link", "enqueue", {"link": "l0", "bytes": 100})
    sim.bus.emit("link", "deliver", {"link": "l0", "bytes": 100})
    sim.bus.emit("link", "deliver", {"link": "l0", "bytes": 100})
    (violation,) = checker.violations
    assert violation.invariant == "link-conservation"
    assert violation.details == {"link": "l0", "enqueued": 1,
                                 "delivered": 2, "dropped": 0}


def test_link_conservation_counts_per_link():
    sim, _harness, checker = armed(LinkConservationChecker)
    sim.bus.emit("link", "enqueue", {"link": "a", "bytes": 1})
    sim.bus.emit("link", "deliver", {"link": "b", "bytes": 1})
    assert checker.violations           # link b delivered from nothing


def test_link_conservation_finish_reports_residue():
    sim, _harness, checker = armed(LinkConservationChecker)
    # Corrupt the counter directly to model a tail-of-run bookkeeping
    # bug that on_event alone would not notice.
    checker._counts["l0"] = [2, 2, 1]
    checker.finish()
    (violation,) = checker.violations
    assert violation.time == -1.0       # finish()-time, no event
    assert "residue" in violation.message


def _burst_on_a_link(sim, sink, n=3):
    """``n`` packets sent back to back to ``sink`` over a 1.48
    ms/packet link named "wire"."""
    link = Link(sim, rate_bps=8_000_000, delay=0.0, name="wire")
    link.connect(sink)
    for seq in range(n):
        link.send(Packet(IPAddress("10.0.0.1"), IPAddress("10.0.0.2"), "tcp",
                         Segment(1, 2, seq=seq, payload=b"x" * 1440)))


def test_link_conservation_quiescence_survives_compaction_in_a_delivery():
    """The PR 15 packet-eating bug's shape, per packet: a delivery
    callback cancels enough timers to compact the heap while the rest
    of its burst is still queued.  Every packet arrives and the drained
    simulator leaves no residue."""
    sim = Simulator(min_compact=4)
    harness = arm_invariants(sim, checkers=(LinkConservationChecker,))
    delivered = []

    def deliver_and_churn(packet):
        delivered.append(packet)
        if len(delivered) == 1:
            for event in [sim.schedule(5.0, lambda: None) for _ in range(8)]:
                event.cancel()

    _burst_on_a_link(sim, deliver_and_churn)
    sim.run()
    assert sim.compactions >= 1
    assert len(delivered) == 3 and sim.pending_events == 0
    harness.assert_clean()


def test_link_conservation_fires_when_a_queued_delivery_vanishes():
    sim, harness, checker = armed(LinkConservationChecker)
    delivered = []
    _burst_on_a_link(sim, delivered.append)
    sim.run(until=0.002)            # one delivered, two in flight
    harness.finish()
    assert not checker.violations   # events still queued: in flight
    # Remove one queued delivery behind the link's back (no drop booked).
    del sim._queue[-1]
    sim.run()
    assert len(delivered) == 2 and sim.pending_events == 0
    (violation,) = harness.finish()
    assert violation.details["link"] == "wire"
    assert violation.details["residue"] == 1


# -- harness behaviour -------------------------------------------------------

def test_strict_mode_raises_at_the_violating_instant():
    sim, _harness, _checker = armed(MonotoneSeqChecker, strict=True)
    sim.bus.emit("tls", "record_sealed", {"session": 0, "stream": 1, "seq": 0})
    sim.schedule(2.0, sim.bus.emit, "tls", "record_sealed",
                 {"session": 0, "stream": 1, "seq": 5})
    with pytest.raises(InvariantViolationError) as excinfo:
        sim.run()
    assert excinfo.value.violations[0].time == 2.0


def test_harness_sorts_violations_across_checkers_by_time():
    sim = Simulator()
    harness = arm_invariants(sim)
    sim.schedule(2.0, sim.bus.emit, "tcp", "cwnd_updated",
                 {"conn": 1, "cwnd": -1, "min_cwnd": 2})
    sim.schedule(1.0, sim.bus.emit, "tls", "record_sealed",
                 {"session": 0, "stream": 1, "seq": 4})
    sim.run()
    violations = harness.finish()
    assert [v.invariant for v in violations] == ["monotone-seq", "cwnd-sane"]
    assert [v.time for v in violations] == [1.0, 2.0]


def test_disarm_stops_checking():
    sim, harness, checker = armed(MonotoneSeqChecker)
    harness.disarm()
    sim.bus.emit("tls", "record_sealed", {"session": 0, "stream": 1, "seq": 9})
    assert not checker.violations
    assert not sim.bus.wants("tls")


def test_arm_accepts_ready_made_instances():
    sim = Simulator()
    checker = MonotoneSeqChecker()
    harness = arm_invariants(sim, checkers=(checker,))
    assert harness.checkers == [checker]


def test_violation_to_dict_is_json_shaped():
    sim, _harness, checker = armed(MonotoneSeqChecker)
    sim.bus.emit("tls", "record_sealed", {"session": 0, "stream": 1, "seq": 3})
    document = checker.violations[0].to_dict()
    assert set(document) == {"time", "invariant", "message", "details"}
