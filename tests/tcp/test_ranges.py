"""RangeSet: the SACK scoreboard structure (unit + property tests)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tcp.ranges import RangeSet


def test_add_and_merge_adjacent():
    ranges = RangeSet()
    ranges.add(0, 10)
    ranges.add(10, 20)
    assert list(ranges) == [(0, 20)]


def test_add_overlapping():
    ranges = RangeSet([(0, 10), (20, 30)])
    ranges.add(5, 25)
    assert list(ranges) == [(0, 30)]


def test_empty_add_ignored():
    ranges = RangeSet()
    ranges.add(5, 5)
    assert not ranges and ranges.total == 0


def test_subtract_middle_splits():
    ranges = RangeSet([(0, 30)])
    ranges.subtract(10, 20)
    assert list(ranges) == [(0, 10), (20, 30)]


def test_subtract_everything():
    ranges = RangeSet([(5, 15)])
    ranges.subtract(0, 100)
    assert not ranges


def test_trim_below():
    ranges = RangeSet([(0, 10), (20, 30)])
    ranges.trim_below(25)
    assert list(ranges) == [(25, 30)]


def test_contains_and_covers():
    ranges = RangeSet([(10, 20)])
    assert ranges.contains(10)
    assert ranges.contains(19)
    assert not ranges.contains(20)
    assert ranges.covers(12, 18)
    assert not ranges.covers(12, 22)
    assert ranges.covers(5, 5)  # empty interval always covered


def test_first_range_at_or_above():
    ranges = RangeSet([(10, 20), (30, 40)])
    assert ranges.first_range_at_or_above(0) == (10, 20)
    assert ranges.first_range_at_or_above(15) == (15, 20)
    assert ranges.first_range_at_or_above(25) == (30, 40)
    assert ranges.first_range_at_or_above(40) is None


def test_complement_within():
    ranges = RangeSet([(10, 20), (30, 40)])
    gaps = ranges.complement_within(0, 50)
    assert list(gaps) == [(0, 10), (20, 30), (40, 50)]
    assert list(ranges.complement_within(12, 18)) == []


def test_min_max_total():
    ranges = RangeSet([(5, 10), (20, 22)])
    assert ranges.min == 5 and ranges.max == 22 and ranges.total == 7


intervals = st.lists(
    st.tuples(st.integers(0, 500), st.integers(1, 50)).map(
        lambda t: (t[0], t[0] + t[1])
    ),
    max_size=30,
)


@settings(max_examples=200)
@given(intervals)
def test_property_matches_set_semantics(spans):
    """A RangeSet must behave exactly like a set of integers."""
    ranges = RangeSet()
    model = set()
    for start, end in spans:
        ranges.add(start, end)
        model.update(range(start, end))
    assert ranges.total == len(model)
    for point in range(0, 560, 7):
        assert ranges.contains(point) == (point in model)
    # Internal invariant: sorted, non-overlapping, non-adjacent.
    flat = list(ranges)
    for (s1, e1), (s2, e2) in zip(flat, flat[1:]):
        assert e1 < s2


@settings(max_examples=200)
@given(intervals, intervals)
def test_property_subtract_matches_set_difference(adds, subs):
    ranges = RangeSet()
    model = set()
    for start, end in adds:
        ranges.add(start, end)
        model.update(range(start, end))
    for start, end in subs:
        ranges.subtract(start, end)
        model.difference_update(range(start, end))
    assert ranges.total == len(model)
    for point in range(0, 560, 11):
        assert ranges.contains(point) == (point in model)


@settings(max_examples=100)
@given(intervals, st.integers(0, 550), st.integers(0, 550))
def test_property_complement_is_exact(spans, lo, hi):
    if lo > hi:
        lo, hi = hi, lo
    ranges = RangeSet()
    model = set()
    for start, end in spans:
        ranges.add(start, end)
        model.update(range(start, end))
    gaps = ranges.complement_within(lo, hi)
    expected = {p for p in range(lo, hi) if p not in model}
    assert gaps.total == len(expected)
    for point in range(lo, hi, 5):
        assert gaps.contains(point) == (point in expected)


def test_reversed_walks_top_down():
    ranges = RangeSet([(0, 10), (20, 30), (40, 50)])
    assert list(reversed(ranges)) == [(40, 50), (20, 30), (0, 10)]


_op = st.one_of(
    st.tuples(st.sampled_from(["add", "subtract"]),
              st.integers(0, 300), st.integers(0, 60)),
    st.tuples(st.just("trim_below"), st.integers(0, 320), st.just(0)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_op, max_size=40), st.integers(0, 320), st.integers(0, 60))
def test_property_every_operation_matches_a_set_of_ints(ops, probe, width):
    """Interleaved add/subtract/trim_below against a plain set of
    integers: after every step the ranges are the set's maximal runs
    and ``total`` is its size; every query answers as the set does."""
    ranges = RangeSet()
    model = set()
    for name, start, length in ops:
        if name == "add":
            ranges.add(start, start + length)
            model.update(range(start, start + length))
        elif name == "subtract":
            ranges.subtract(start, start + length)
            model.difference_update(range(start, start + length))
        else:
            ranges.trim_below(start)
            model = {p for p in model if p >= start}
        runs = []
        for point in sorted(model):
            if runs and runs[-1][1] == point:
                runs[-1][1] = point + 1
            else:
                runs.append([point, point + 1])
        assert list(ranges) == [tuple(run) for run in runs]
        assert ranges.total == len(model)
    assert ranges.contains(probe) == (probe in model)
    assert ranges.covers(probe, probe + width) == \
        all(p in model for p in range(probe, probe + width))
    above = [p for p in model if p >= probe]
    first = ranges.first_range_at_or_above(probe)
    if not above:
        assert first is None
    else:
        start = min(above)
        end = start
        while end in model:
            end += 1
        assert first == (start, end)
    gaps = ranges.complement_within(probe, probe + width)
    assert set().union(*(range(s, e) for s, e in gaps)) == \
        {p for p in range(probe, probe + width) if p not in model}
