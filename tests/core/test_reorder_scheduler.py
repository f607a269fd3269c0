"""Reordering heap and record schedulers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reorder import ReorderBuffer
from repro.core.engine.policy import (
    LowestRttScheduler,
    RedundantScheduler,
    RoundRobinScheduler,
    WeightedScheduler,
)


class TestReorderBuffer:
    def test_in_order_passthrough(self):
        buf = ReorderBuffer()
        assert buf.push(0, b"a") == [b"a"]
        assert buf.push(1, b"b") == [b"b"]
        assert buf.out_of_order == 0

    def test_gap_holds_then_releases(self):
        buf = ReorderBuffer()
        assert buf.push(2, b"c") == []
        assert buf.push(1, b"b") == []
        assert buf.depth == 2
        assert buf.push(0, b"a") == [b"a", b"b", b"c"]
        assert buf.depth == 0
        assert buf.out_of_order == 2

    def test_duplicates_dropped(self):
        buf = ReorderBuffer()
        buf.push(1, b"x")
        assert buf.push(1, b"x-again") == []
        assert buf.push(0, b"a") == [b"a", b"x"]
        assert buf.push(0, b"stale") == []

    def test_max_depth_statistic(self):
        buf = ReorderBuffer()
        for seq in (5, 4, 3, 2, 1):
            buf.push(seq, b"")
        assert buf.max_depth == 5

    @settings(max_examples=100)
    @given(st.permutations(list(range(25))))
    def test_property_any_permutation_delivers_in_order(self, order):
        buf = ReorderBuffer()
        released = []
        for seq in order:
            released.extend(buf.push(seq, seq))
        assert released == list(range(25))


class FakeConn:
    def __init__(self, srtt, cwnd=10_000, in_flight=0):
        self._srtt = srtt
        self.cc = type("CC", (), {"cwnd": cwnd})()
        self._in_flight = in_flight

    def tcp_info(self):
        return {"srtt": self._srtt}

    def bytes_in_flight(self):
        return self._in_flight

    def congestion_window(self):
        return self.cc.cwnd


class FakeStream:
    def __init__(self, srtt, in_flight=0):
        self.connection = type("C", (), {})()
        self.connection.tcp = FakeConn(srtt, in_flight=in_flight)


class TestSchedulers:
    def test_round_robin_alternates(self):
        scheduler = RoundRobinScheduler()
        streams = ["a", "b", "c"]
        picks = [scheduler.pick_stream(streams) for _ in range(6)]
        assert picks == ["a", "b", "c", "a", "b", "c"]

    def test_round_robin_empty_rejected(self):
        with pytest.raises(ValueError):
            RoundRobinScheduler().pick_stream([])

    def test_lowest_rtt_prefers_fast_path(self):
        fast, slow = FakeStream(0.01), FakeStream(0.08)
        assert LowestRttScheduler().pick_stream([slow, fast]) is fast

    def test_lowest_rtt_skips_full_cwnd(self):
        fast_full = FakeStream(0.01, in_flight=20_000)
        slow_open = FakeStream(0.08)
        assert LowestRttScheduler().pick_stream(
            [fast_full, slow_open]) is slow_open

    def test_weighted_ratio(self):
        scheduler = WeightedScheduler([3, 1])
        streams = ["a", "b"]
        picks = [scheduler.pick_stream(streams) for _ in range(8)]
        assert picks.count("a") == 6 and picks.count("b") == 2

    def test_weighted_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            WeightedScheduler([])
        with pytest.raises(ValueError):
            WeightedScheduler([1, 0])

    def test_redundant_returns_all(self):
        # "All" is the declared capability the pump fans out on; asked
        # for exactly one stream, the policy names the first.
        assert RedundantScheduler.replicate is True
        assert RedundantScheduler().pick_stream(["a", "b"]) == "a"
