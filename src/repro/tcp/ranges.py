"""Sorted, merged half-open integer ranges.

Used for the SACK scoreboard (sacked / lost / retransmitted sequence
ranges, RFC 6675) and reused by the TCPLS failover machinery to track
acknowledged records.  Ranges are half-open ``[start, end)``.
"""

from bisect import bisect_left, bisect_right


class RangeSet:
    """A set of non-overlapping, sorted, merged [start, end) ranges."""

    def __init__(self, ranges=()):
        #: sorted ``[start, end]`` lists; a probe ``[point]`` bisects to
        #: the first range starting at or above ``point``.
        self._ranges = []
        #: total integers covered, maintained by every mutation (a
        #: plain attribute: the TCP pipe estimator and the scoreboard
        #: emptiness tests read it on every send opportunity).
        self.total = 0
        for start, end in ranges:
            self.add(start, end)

    def __bool__(self):
        return bool(self._ranges)

    def __len__(self):
        return len(self._ranges)

    def __iter__(self):
        return iter(tuple(r) for r in self._ranges)

    def __reversed__(self):
        return iter(tuple(r) for r in reversed(self._ranges))

    def __eq__(self, other):
        if isinstance(other, RangeSet):
            return self._ranges == other._ranges
        return NotImplemented

    def __repr__(self):
        return "RangeSet(%r)" % (self._ranges,)

    def clear(self):
        self._ranges = []
        self.total = 0

    @property
    def min(self):
        return self._ranges[0][0] if self._ranges else None

    @property
    def max(self):
        return self._ranges[-1][1] if self._ranges else None

    def add(self, start, end):
        """Insert [start, end), merging with neighbours."""
        if end <= start:
            return
        ranges = self._ranges
        i = bisect_left(ranges, [start])
        # Merge with the predecessor if it touches.
        if i > 0 and ranges[i - 1][1] >= start:
            i -= 1
            start = ranges[i][0]
        # Swallow every range that starts inside or touches [start, end).
        j = i
        n = len(ranges)
        swallowed = 0
        while j < n and ranges[j][0] <= end:
            swallowed += ranges[j][1] - ranges[j][0]
            j += 1
        if j > i and ranges[j - 1][1] > end:
            end = ranges[j - 1][1]
        ranges[i:j] = [[start, end]]
        self.total += end - start - swallowed

    def subtract(self, start, end):
        """Remove [start, end) from the set."""
        if end <= start:
            return
        ranges = self._ranges
        # Affected slice: from the first range ending above ``start``
        # to the last one starting below ``end``.
        i = bisect_left(ranges, [start])
        if i > 0 and ranges[i - 1][1] > start:
            i -= 1
        j = bisect_left(ranges, [end], i)
        if i == j:
            return
        first_start, last_end = ranges[i][0], ranges[j - 1][1]
        removed = sum(e - s for s, e in ranges[i:j])
        keep = []
        if first_start < start:
            keep.append([first_start, start])
            removed -= start - first_start
        if last_end > end:
            keep.append([end, last_end])
            removed -= last_end - end
        ranges[i:j] = keep
        self.total -= removed

    def trim_below(self, cutoff):
        """Remove everything < cutoff."""
        ranges = self._ranges
        if ranges and ranges[0][0] < cutoff:
            self.subtract(ranges[0][0], cutoff)

    def contains(self, point):
        i = bisect_right(self._ranges, [point, float("inf")])
        if i > 0:
            s, e = self._ranges[i - 1]
            if s <= point < e:
                return True
        return False

    def covers(self, start, end):
        """True if [start, end) is entirely inside one range."""
        if end <= start:
            return True
        i = bisect_right(self._ranges, [start, float("inf")])
        if i > 0:
            s, e = self._ranges[i - 1]
            return s <= start and end <= e
        return False

    def first_range_at_or_above(self, point):
        """First (start, end) with end > point, clamped to start >= point."""
        ranges = self._ranges
        i = bisect_left(ranges, [point])
        if i > 0 and ranges[i - 1][1] > point:
            return (point, ranges[i - 1][1])
        if i < len(ranges):
            return tuple(ranges[i])
        return None

    def gaps_covered_above(self, floor, amount):
        """The gaps with at least ``amount`` covered above them, as
        ascending ``(start, end)`` tuples: those between two ranges, and
        the one from ``floor`` up to the lowest range, of the ranges
        that end above ``floor`` (RFC 6675's IsLost on a SACK
        scoreboard).  The cover above a gap only grows downwards, so
        the walk from the top stops where it first reaches ``amount``:
        every gap below that range qualifies."""
        ranges = self._ranges
        low = bisect_left(ranges, [floor])
        if low > 0 and ranges[low - 1][1] > floor:
            low -= 1
        cut = len(ranges)
        covered = 0
        while cut > low and covered < amount:
            cut -= 1
            covered += ranges[cut][1] - ranges[cut][0]
        if cut == len(ranges) or covered < amount:
            return []
        gaps = [(ranges[i - 1][1], ranges[i][0]) for i in range(low + 1,
                                                               cut + 1)]
        if ranges[low][0] > floor:
            gaps.insert(0, (floor, ranges[low][0]))
        return gaps

    def complement_within(self, start, end):
        """Gaps of this set inside [start, end), as a new RangeSet."""
        gaps = RangeSet()
        cursor = start
        for s, e in self._ranges:
            if e <= start:
                continue
            if s >= end:
                break
            if s > cursor:
                gaps.add(cursor, min(s, end))
            cursor = max(cursor, e)
            if cursor >= end:
                break
        if cursor < end:
            gaps.add(cursor, end)
        return gaps
