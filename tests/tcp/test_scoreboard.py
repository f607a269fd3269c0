"""SACK scoreboard: the linear IsLost pass against the quadratic one."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Simulator
from repro.net.address import Endpoint
from repro.tcp.connection import TcpConnection
from repro.tcp.ranges import RangeSet

MSS = 100


class _Stack:
    """As much of a TcpStack as constructing a connection needs."""

    def __init__(self):
        self.sim = Simulator()

    def mss_for(self, local, remote):
        return MSS


def _connection(snd_una, sacked, rexmitted):
    conn = TcpConnection(_Stack(), Endpoint("10.0.0.1", 1000),
                         Endpoint("10.0.0.2", 443))
    conn.snd_una = snd_una
    conn._sacked = RangeSet(sacked)
    conn._rexmitted = RangeSet(rexmitted)
    return conn


def _mark_holes_lost_quadratic(conn):
    """The body ``_mark_holes_lost`` had before the linear pass, kept
    as the oracle: per gap, re-sum every range above it."""
    if not conn._sacked:
        return
    threshold = 3 * conn.mss
    ranges = list(conn._sacked)
    gaps = conn._sacked.complement_within(conn.snd_una, conn._sacked.max)
    for start, end in gaps:
        sacked_above = sum(e - s for s, e in ranges if s >= end)
        if sacked_above < threshold:
            continue
        cursor = start
        while cursor < end:
            chunk_end = min(cursor + conn.mss, end)
            if not conn._rexmitted.covers(cursor, chunk_end):
                conn._lost.add(cursor, chunk_end)
            cursor = chunk_end


def _both(snd_una, sacked, rexmitted=()):
    linear = _connection(snd_una, sacked, rexmitted)
    oracle = _connection(snd_una, sacked, rexmitted)
    linear._mark_holes_lost()
    _mark_holes_lost_quadratic(oracle)
    assert linear._lost == oracle._lost
    assert linear._lost.total == oracle._lost.total
    assert linear._rexmitted == oracle._rexmitted
    return list(linear._lost)


def test_hole_needs_three_segments_sacked_above():
    # 2.5 MSS above the only gap: still in flight, not lost
    assert _both(1000, [(1100, 1350)]) == []
    assert _both(1000, [(1100, 1400)]) == [(1000, 1100)]


def test_only_holes_with_enough_above_are_marked():
    # the upper gap has 1 MSS above it, the lower one 3 MSS
    sacked = [(1100, 1300), (1400, 1500)]
    assert _both(1000, sacked) == [(1000, 1100)]
    assert _both(1000, sacked + [(1600, 1900)]) == \
        [(1000, 1100), (1300, 1400), (1500, 1600)]


def test_range_straddling_snd_una_opens_no_gap_below_it():
    assert _both(1050, [(1000, 1100), (1200, 1600)]) == [(1100, 1200)]
    # ... and ranges wholly below snd_una count for nothing
    assert _both(1500, [(1000, 1400), (1600, 1800)]) == []


def test_retransmitted_chunks_are_not_marked_again():
    lost = _both(1000, [(1250, 1600)], rexmitted=[(1000, 1100)])
    assert lost == [(1100, 1250)]


_ranges = st.lists(
    st.tuples(st.integers(0, 6000), st.integers(1, 500)).map(
        lambda t: (t[0], t[0] + t[1])),
    max_size=70)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6000), _ranges, _ranges)
def test_property_linear_pass_equals_quadratic(snd_una, sacked, rexmitted):
    """Random scoreboards -- ranges below, straddling and above
    ``snd_una``, thin and thick coverage above each gap, part of it
    already retransmitted -- mark exactly the same bytes lost."""
    _both(snd_una, sacked, rexmitted)
