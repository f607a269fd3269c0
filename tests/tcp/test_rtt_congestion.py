"""RTT estimation and congestion-control algorithms."""

import pytest

from repro.tcp.congestion import (
    Cubic,
    NewReno,
    Vegas,
    make_congestion_control,
    register_congestion_control,
)
from repro.tcp.rtt import RttEstimator

MSS = 1460


class TestRttEstimator:
    def test_initial_rto(self):
        assert RttEstimator().rto == pytest.approx(1.0)

    def test_first_sample_seeds_srtt(self):
        est = RttEstimator()
        est.on_sample(0.1)
        assert est.srtt == pytest.approx(0.1)
        assert est.rttvar == pytest.approx(0.05)

    def test_ewma_converges(self):
        est = RttEstimator()
        for _ in range(100):
            est.on_sample(0.05)
        assert est.srtt == pytest.approx(0.05, rel=0.01)
        assert est.rto == pytest.approx(0.2, abs=0.02)  # MIN_RTO floor

    def test_rto_grows_with_variance(self):
        est = RttEstimator()
        for sample in (0.05, 0.25, 0.05, 0.25, 0.05, 0.25):
            est.on_sample(sample)
        assert est.rto > 0.3

    def test_min_rtt_tracked(self):
        est = RttEstimator()
        for sample in (0.08, 0.03, 0.2):
            est.on_sample(sample)
        assert est.min_rtt == pytest.approx(0.03)

    def test_nonpositive_samples_ignored(self):
        est = RttEstimator()
        est.on_sample(0.0)
        est.on_sample(-1.0)
        assert est.samples == 0


class TestNewReno:
    def test_slow_start_doubles_per_rtt(self):
        cc = NewReno(MSS)
        start = cc.cwnd
        cc.on_ack(int(start), 0.02, 0.02, int(start))
        assert cc.cwnd == pytest.approx(2 * start)

    def test_congestion_avoidance_one_mss_per_cwnd(self):
        cc = NewReno(MSS)
        cc.ssthresh = cc.cwnd  # leave slow start
        before = cc.cwnd
        acked = 0
        while acked < before:
            cc.on_ack(MSS, 0.02, 0.0, 0)
            acked += MSS
        assert before + MSS <= cc.cwnd <= before + 2 * MSS

    def test_loss_halves(self):
        cc = NewReno(MSS)
        cc.cwnd = 100 * MSS
        cc.on_loss(0.0)
        assert cc.cwnd == pytest.approx(50 * MSS)
        assert cc.ssthresh == pytest.approx(50 * MSS)

    def test_rto_collapses_to_one_mss(self):
        cc = NewReno(MSS)
        cc.cwnd = 100 * MSS
        cc.on_rto(0.0)
        assert cc.cwnd == MSS

    def test_floor_at_two_mss(self):
        cc = NewReno(MSS)
        cc.cwnd = 2 * MSS
        cc.on_loss(0.0)
        assert cc.cwnd >= 2 * MSS


class TestCubic:
    def test_slow_start_then_plateau(self):
        cc = Cubic(MSS)
        assert cc.in_slow_start()
        cc.cwnd = 100 * MSS
        cc.on_loss(0.0)
        assert not cc.in_slow_start()
        assert cc.cwnd == pytest.approx(70 * MSS)  # beta = 0.7

    def test_concave_growth_toward_w_max(self):
        cc = Cubic(MSS)
        cc.cwnd = 100 * MSS
        cc.on_loss(0.0)
        now = 0.0
        for _ in range(400):
            now += 0.01
            cc.on_ack(MSS, 0.02, now, int(cc.cwnd))
        assert 70 * MSS < cc.cwnd
        # K for this drop is ~3.3 s; at t=4 s cwnd should be near w_max.
        assert cc.cwnd < 130 * MSS

    def test_growth_rate_clamped(self):
        cc = Cubic(MSS)
        cc.ssthresh = cc.cwnd
        cc.w_max = 1000 * MSS  # huge target
        before = cc.cwnd
        cc.on_ack(MSS, 0.02, 10.0, 0)
        # cnt >= 2: at most half an MSS per acked MSS.
        assert cc.cwnd - before <= MSS / 2 + 1

    def test_hystart_exits_slow_start_on_delay(self):
        cc = Cubic(MSS)
        cc.cwnd = 32 * MSS
        cc.on_ack(MSS, 0.020, 0.0, 0)    # min_rtt = 20 ms
        cc.on_ack(MSS, 0.060, 0.1, 0)    # inflated RTT -> exit
        assert not cc.in_slow_start()


class TestVegas:
    def test_grows_when_below_alpha(self):
        cc = Vegas(MSS)
        cc.ssthresh = cc.cwnd
        now = 0.0
        before = cc.cwnd
        for _ in range(50):
            now += 0.02
            cc.on_ack(MSS, 0.020, now, 0)  # rtt == base_rtt: no queue
        assert cc.cwnd > before

    def test_backs_off_when_queue_builds(self):
        cc = Vegas(MSS)
        cc.ssthresh = cc.cwnd
        now = 0.0
        cc.on_ack(MSS, 0.020, now, 0)   # establish base_rtt
        before = None
        for _ in range(100):
            now += 0.05
            cc.on_ack(MSS, 0.050, now, 0)   # heavy queueing delay
            if before is None:
                before = cc.cwnd
        assert cc.cwnd < before

    def test_loss_decrease_gentler_than_reno(self):
        vegas, reno = Vegas(MSS), NewReno(MSS)
        vegas.cwnd = reno.cwnd = 100 * MSS
        vegas.on_loss(0.0)
        reno.on_loss(0.0)
        assert vegas.cwnd > reno.cwnd


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 9: on_rto recomputes ssthresh from cwnd on every "
    "timeout, so the second of two back-to-back RTOs sets it to 2*MSS "
    "and the flow crawls in congestion avoidance from one segment"))
def test_second_rto_for_the_same_segment_holds_ssthresh():
    """RFC 5681 section 3.1: ssthresh is reduced when the retransmission
    timer detects a loss for a segment *not yet resent* by that timer;
    when the retransmission itself times out it keeps its value."""
    for algorithm in (NewReno, Cubic, Vegas):
        cc = algorithm(MSS)
        cc.cwnd = 100 * MSS
        cc.on_rto(0.0)
        after_first = cc.ssthresh
        assert after_first >= 50 * MSS
        cc.on_rto(0.4)      # no ACK in between: the same segment again
        assert cc.cwnd == MSS
        assert cc.ssthresh == after_first, algorithm.__name__


def test_factory_and_registry():
    assert isinstance(make_congestion_control("cubic", MSS), Cubic)
    assert isinstance(make_congestion_control("RENO", MSS), NewReno)
    with pytest.raises(ValueError):
        make_congestion_control("bbr9", MSS)
    register_congestion_control("custom", NewReno)
    assert isinstance(make_congestion_control("custom", MSS), NewReno)


def test_snapshot_shape():
    cc = Cubic(MSS)
    snap = cc.snapshot()
    assert snap["ca_name"] == "cubic"
    assert snap["ssthresh_bytes"] is None  # infinity encodes as None
    assert snap["slow_start"] is True
