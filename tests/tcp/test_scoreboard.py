"""SACK scoreboard: the linear IsLost pass against the quadratic one,
and the pass that skips the holes it already marked against the one
that walks every hole on every ACK."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Simulator
from repro.net.address import Endpoint
from repro.tcp.connection import ESTABLISHED, FLAGS_ACK, TcpConnection
from repro.tcp.options import SackOption
from repro.tcp.ranges import RangeSet
from repro.tcp.segment import Segment

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


# -- the marked-hole memo against the walk it skips ------------------------

def _mark_holes_lost_every_hole(conn):
    """The body ``_mark_holes_lost`` had before it remembered the holes
    it had marked, kept as the oracle: one pass down the whole
    scoreboard, and every hole marked on every call."""
    threshold = 3 * conn.mss
    sacked_above = 0
    holes = []
    upper = None
    for start, end in reversed(conn._sacked):
        if end <= conn.snd_una:
            break
        if upper is not None and sacked_above >= threshold:
            holes.append((end, upper))
        sacked_above += end - start
        upper = start
    if upper is not None and upper > conn.snd_una \
            and sacked_above >= threshold:
        holes.append((conn.snd_una, upper))
    for start, end in reversed(holes):
        cursor = start
        while cursor < end:
            chunk_end = min(cursor + conn.mss, end)
            if not conn._rexmitted.covers(cursor, chunk_end):
                conn._lost.add(cursor, chunk_end)
            cursor = chunk_end


class _Host:
    """Collects what a connection sends: ``(seq, length, flags)``."""

    def __init__(self):
        self.sent = []

    def send(self, packet):
        segment = packet.payload
        self.sent.append((segment.seq, len(segment.payload),
                          sorted(segment.flags)))


def _sender(in_flight):
    """An established sender with ``in_flight`` bytes sent and unacked,
    and the list its segments go to."""
    stack = _Stack()
    stack.host = _Host()
    conn = TcpConnection(stack, Endpoint("10.0.0.1", 1000),
                         Endpoint("10.0.0.2", 443), iss=0)
    conn.state = ESTABLISHED
    conn.peer_window = 1 << 30
    conn.snd_buf.write(bytes(in_flight))
    conn.snd_una, conn.snd_nxt = 1, 1 + in_flight
    return conn, stack.host.sent


def _ack(conn, advance, blocks):
    ack = min(conn.snd_una + advance, conn.snd_nxt)
    options = (SackOption(blocks),) if blocks else ()
    return Segment(src_port=443, dst_port=1000, seq=0, ack=ack,
                   flags=FLAGS_ACK, window=1 << 30, options=options)


_block = st.tuples(st.integers(0, 4000), st.integers(1, 700))
_steps = st.lists(st.one_of(
    # an ACK: cumulative advance (0 = duplicate) and SACK blocks, as
    # offsets from snd_una
    st.tuples(st.just("ack"), st.integers(0, 600) | st.just(0),
              st.lists(_block, max_size=4)),
    st.tuples(st.just("rto")),
    st.tuples(st.just("write"), st.integers(1, 900)),
    st.tuples(st.just("close")),
), min_size=1, max_size=60)


@settings(max_examples=300, deadline=None)
@given(st.integers(500, 5000), _steps)
def test_property_marked_holes_memo_equals_the_full_walk(in_flight, steps):
    """Random ACK, SACK, retransmission, RTO, recovery entry and exit,
    new-data and FIN sequences: the sender that skips the holes it has
    marked keeps exactly the scoreboard, and sends exactly the
    segments, of one that walks every hole on every ACK."""
    memo, memo_sent = _sender(in_flight)
    walk, walk_sent = _sender(in_flight)
    walk._mark_holes_lost = lambda: _mark_holes_lost_every_hole(walk)
    for step in steps:
        for conn in (memo, walk):
            if step[0] == "ack":
                base = conn.snd_una
                blocks = [(base + offset, base + offset + length)
                          for offset, length in step[2]]
                conn._process_ack(_ack(conn, step[1], blocks))
            elif step[0] == "rto":
                conn._on_rto()
            elif step[0] == "close":
                conn.close()
            elif not conn._fin_queued:
                conn.send(bytes(step[1]))
        assert memo._lost == walk._lost
        assert memo._lost.total == walk._lost.total
        assert memo._rexmitted == walk._rexmitted
        assert memo._sacked == walk._sacked
        assert memo_sent == walk_sent
        assert (memo.snd_una, memo.snd_nxt, memo._in_recovery) == \
            (walk.snd_una, walk.snd_nxt, walk._in_recovery)


def test_partial_chunk_retransmission_unmarks_its_hole():
    """A retransmission that takes part of a chunk out of ``_lost``
    leaves that chunk uncovered by ``_rexmitted``: the walk marks it
    again, so the hole must not be skipped.  (In a recovery the lost
    bytes of a hole start on its grid and this never happens; the
    scoreboard is set by hand here.)"""
    memo, _ = _sender(2000)
    walk, _ = _sender(2000)
    walk._mark_holes_lost = lambda: _mark_holes_lost_every_hole(walk)
    for conn in (memo, walk):
        conn._sacked = RangeSet([(501, 1001)])
        conn._mark_holes_lost()
        assert list(conn._lost) == [(1, 501)]
        # the first chunk went out once, and the lost bytes now start
        # half way into it
        conn._rexmitted.add(1, 101)
        conn._lost.subtract(1, 51)
        conn.cc.cwnd = conn._pipe() + 1      # room for one segment
        assert conn._retransmit_lost()
        assert list(conn._lost) == [(151, 501)]
        conn._mark_holes_lost()
    assert list(walk._lost) == [(101, 501)]
    assert memo._lost == walk._lost
