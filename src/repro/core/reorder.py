"""Receive-side reordering heap for coupled streams.

When coupled streams span several TCP connections, decrypted records
arrive interleaved; each carries an explicit coupled sequence number in
its control tail.  The heap releases payloads in coupled-sequence order
(Sec. 4.3: "When a record is received out-of-sequence, its content is
pushed on an efficient reordering heap").
"""

import heapq


class ReorderBuffer:
    """Min-heap keyed by sequence number, delivering a gapless prefix."""

    def __init__(self, first_seq=0):
        self.next_seq = first_seq
        self._heap = []
        self._pending = {}
        self.max_depth = 0
        self.out_of_order = 0
        #: payload bytes parked waiting for a gap to fill (counted
        #: against the server engine's per-session receive budget)
        self.buffered_bytes = 0

    def push(self, seq, payload):
        """Insert one item; returns the list of in-order payloads released.

        Duplicate sequence numbers (failover replays) are dropped.
        """
        if seq < self.next_seq or seq in self._pending:
            return []
        if seq != self.next_seq:
            self.out_of_order += 1
            if isinstance(payload, memoryview):
                # it waits for a gap: a copy, not a pin on its read
                payload = payload.tobytes()
        heapq.heappush(self._heap, seq)
        self._pending[seq] = payload
        # Payloads are bytes on the session path; test harnesses push
        # arbitrary sentinels, which count as zero-sized.
        self.buffered_bytes += len(payload) if hasattr(payload, "__len__") \
            else 0
        self.max_depth = max(self.max_depth, len(self._heap))
        released = []
        while self._heap and self._heap[0] == self.next_seq:
            head = heapq.heappop(self._heap)
            item = self._pending.pop(head)
            self.buffered_bytes -= len(item) if hasattr(item, "__len__") \
                else 0
            released.append(item)
            self.next_seq += 1
        return released

    @property
    def depth(self):
        """Items waiting for a gap to fill."""
        return len(self._heap)
