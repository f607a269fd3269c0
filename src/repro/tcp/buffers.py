"""Send and receive buffers for the bytestream.

The send buffer retains unacknowledged bytes addressed by absolute
sequence number; the receive buffer reassembles in-order data from
possibly out-of-order, overlapping segments and exposes a read queue
with back-pressure (its free space is the advertised window).

Hot-path layout: the send buffer keeps application writes as a list of
*immutable* chunks so :meth:`SendBuffer.peek` can hand out zero-copy
``memoryview`` slices -- the segment payload and the TLS record it is
sealed into reference the application's bytes instead of copying them
twice more.  Immutability matters: a live memoryview over a resizable
``bytearray`` would make releasing acked data a ``BufferError``.
"""

from bisect import bisect_right, insort
from itertools import islice

from repro.tcp.ranges import RangeSet


class SendBuffer:
    """Bytes the application queued, addressed by sequence number.

    ``base_seq`` tracks the lowest unacknowledged byte; data below it
    has been freed.  Chunks are freed lazily: an index (``_head``)
    advances past fully-acked chunks and the chunk list compacts only
    once dead entries dominate, so ``ack_to`` is amortised O(1) instead
    of a memmove of the whole buffer per ACK.
    """

    def __init__(self, base_seq, capacity=None):
        self.base_seq = base_seq
        self.capacity = capacity
        self._chunks = []      # immutable bytes objects
        self._ends = []        # absolute end seq of each chunk (sorted)
        self._head = 0         # index of first chunk with live bytes
        #: absolute sequence number one past the last queued byte
        self.end_seq = base_seq
        # Peek cursor: index of the chunk the last peek landed in.
        # ``_try_send`` walks the buffer in MSS steps, so the next peek
        # almost always hits the same chunk or its successor -- O(1)
        # instead of a bisect per segment.
        self._peek_index = 0

    def __len__(self):
        return self.end_seq - self.base_seq

    def free_space(self):
        if self.capacity is None:
            return float("inf")
        return self.capacity - len(self)

    def write(self, data):
        """Append application data; returns bytes accepted.

        ``bytes`` input is retained by reference (no copy); anything
        else, or a clamped write, is copied once into an immutable
        chunk.
        """
        accept = len(data)
        if self.capacity is not None:
            accept = min(accept, max(self.capacity - len(self), 0))
        if not accept:
            return 0
        if accept == len(data) and type(data) is bytes:
            chunk = data
        else:
            chunk = bytes(memoryview(data)[:accept])
        self._chunks.append(chunk)
        self.end_seq += accept
        self._ends.append(self.end_seq)
        return accept

    def peek(self, seq, length):
        """Read up to ``length`` bytes starting at absolute ``seq``.

        Returns a zero-copy ``memoryview`` when the range lies inside a
        single chunk (the common case: MSS-sized reads of MSS-or-larger
        writes), else a gathered ``bytes``.
        """
        if seq < self.base_seq:
            raise ValueError("peek below base_seq (already acked)")
        end = min(seq + length, self.end_seq)
        if seq >= end:
            return b""
        # Cursor fast path: sequential peeks hit the cached chunk or
        # the one after it; anything else falls back to the bisect.
        ends = self._ends
        head = self._head
        i = self._peek_index
        if not (head <= i < len(ends)
                and (ends[i - 1] if i > head else self.base_seq) <= seq
                < ends[i]):
            i += 1
            if not (head <= i < len(ends) and ends[i - 1] <= seq < ends[i]):
                i = bisect_right(ends, seq, head)
        self._peek_index = i
        chunk = self._chunks[i]
        offset = seq - (self._ends[i] - len(chunk))
        if end <= self._ends[i]:
            return memoryview(chunk)[offset:offset + (end - seq)]
        parts = [memoryview(chunk)[offset:]]
        need = (end - seq) - len(parts[0])
        while need > 0:
            i += 1
            chunk = self._chunks[i]
            take = chunk if len(chunk) <= need else memoryview(chunk)[:need]
            parts.append(take)
            need -= len(take)
        return b"".join(parts)

    def ack_to(self, seq):
        """Release everything below absolute ``seq``; returns bytes freed."""
        if seq <= self.base_seq:
            return 0
        freed = min(seq, self.end_seq) - self.base_seq
        self.base_seq += freed
        head = self._head
        ends = self._ends
        n = len(ends)
        while head < n and ends[head] <= self.base_seq:
            head += 1
        self._head = head
        if head == n:
            self._chunks.clear()
            self._ends.clear()
            self._head = 0
            self._peek_index = 0
        elif head > 32 and head * 2 > n:
            self._chunks = self._chunks[head:]
            self._ends = ends[head:]
            self._head = 0
            self._peek_index = max(self._peek_index - head, 0)
        return freed


class ReceiveBuffer:
    """Reassembles the incoming bytestream.

    Out-of-order data is kept in a segment map keyed by sequence number;
    when the gap fills, contiguous bytes move to the readable queue.
    ``capacity`` bounds readable + buffered out-of-order data and is the
    basis of the advertised receive window.  Everything an arriving
    segment or an outgoing ACK needs is maintained incrementally: the
    out-of-order byte total (:meth:`window`, per outgoing segment), the
    sorted segment starts (the drain after a gap fills touches only
    what it delivers) and the merged out-of-order spans
    (:meth:`sack_blocks`, per ACK while a gap is open).
    """

    def __init__(self, rcv_nxt, capacity=1 << 20):
        self.rcv_nxt = rcv_nxt
        self.capacity = capacity
        self._readable = bytearray()
        self._ooo = {}
        self._ooo_bytes = 0
        self._ooo_seqs = []        # sorted keys of _ooo
        self._ooo_spans = RangeSet()  # merged [seq, seq+len) of _ooo

    def window(self):
        """Advertised window: free space."""
        free = self.capacity - len(self._readable) - self._ooo_bytes
        return free if free > 0 else 0

    def readable_bytes(self):
        return len(self._readable)

    def offer(self, seq, data):
        """Accept segment payload at absolute ``seq``.

        Returns the number of *new* in-order bytes made readable.
        Duplicate and already-received data is trimmed; data beyond the
        window is clamped (a simplification: real stacks also trim).
        """
        if not data:
            return 0
        end = seq + len(data)
        if end <= self.rcv_nxt:
            return 0  # entirely old
        if seq < self.rcv_nxt:
            data = data[self.rcv_nxt - seq:]
            seq = self.rcv_nxt
        if seq > self.rcv_nxt:
            limit = self.rcv_nxt + self.window() + len(self._readable)
            if seq >= limit + self.capacity:
                return 0  # absurdly far ahead; drop
            existing = self._ooo.get(seq)
            if existing is None:
                insort(self._ooo_seqs, seq)
                self._ooo_bytes += len(data)
            elif len(existing) < len(data):
                self._ooo_bytes += len(data) - len(existing)
            else:
                return 0
            self._ooo[seq] = data
            self._ooo_spans.add(seq, end)
            return 0
        # In-order: deliver, then drain any now-contiguous segments.
        delivered = len(data)
        self._readable += data
        self.rcv_nxt = end
        seqs = self._ooo_seqs
        if seqs and seqs[0] <= end:
            drained = 0
            for seq2 in seqs:
                if seq2 > self.rcv_nxt:
                    break
                drained += 1
                data2 = self._ooo.pop(seq2)
                self._ooo_bytes -= len(data2)
                if seq2 + len(data2) <= self.rcv_nxt:
                    continue
                if seq2 < self.rcv_nxt:
                    data2 = data2[self.rcv_nxt - seq2:]
                self._readable += data2
                delivered += len(data2)
                self.rcv_nxt += len(data2)
            del seqs[:drained]
            self._ooo_spans.trim_below(self.rcv_nxt)
        return delivered

    def read(self, n=None):
        """Consume up to ``n`` readable bytes (all if None)."""
        if n is None or n >= len(self._readable):
            data = bytes(self._readable)
            self._readable.clear()
            return data
        data = bytes(self._readable[:n])
        del self._readable[:n]
        return data

    def has_gap(self):
        return bool(self._ooo)

    def sack_blocks(self, limit=3):
        """Merged out-of-order ranges for SACK generation (RFC 2018)."""
        # Most recently useful (highest) blocks first, like real stacks.
        return list(islice(reversed(self._ooo_spans), limit))
