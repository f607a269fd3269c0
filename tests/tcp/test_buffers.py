"""Send/receive buffers, including out-of-order reassembly properties."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tcp.buffers import ReceiveBuffer, SendBuffer


class TestSendBuffer:
    def test_write_and_peek(self):
        buf = SendBuffer(base_seq=100)
        assert buf.write(b"hello world") == 11
        assert buf.peek(100, 5) == b"hello"
        assert buf.peek(106, 5) == b"world"

    def test_capacity_limits_writes(self):
        buf = SendBuffer(base_seq=0, capacity=10)
        assert buf.write(b"x" * 8) == 8
        assert buf.write(b"y" * 8) == 2
        assert buf.free_space() == 0

    def test_ack_frees_space(self):
        buf = SendBuffer(base_seq=0, capacity=10)
        buf.write(b"0123456789")
        assert buf.ack_to(4) == 4
        assert buf.base_seq == 4
        assert buf.peek(4, 3) == b"456"
        assert buf.free_space() == 4

    def test_ack_below_base_is_noop(self):
        buf = SendBuffer(base_seq=50)
        buf.write(b"abc")
        assert buf.ack_to(40) == 0

    def test_peek_below_base_rejected(self):
        buf = SendBuffer(base_seq=10)
        buf.write(b"abc")
        buf.ack_to(11)
        try:
            buf.peek(10, 1)
        except ValueError:
            return
        raise AssertionError("expected ValueError")


class TestReceiveBuffer:
    def test_in_order_delivery(self):
        buf = ReceiveBuffer(rcv_nxt=0)
        assert buf.offer(0, b"abc") == 3
        assert buf.read() == b"abc"
        assert buf.rcv_nxt == 3

    def test_out_of_order_held_until_gap_fills(self):
        buf = ReceiveBuffer(rcv_nxt=0)
        assert buf.offer(3, b"def") == 0
        assert buf.readable_bytes() == 0
        assert buf.has_gap()
        assert buf.offer(0, b"abc") == 6
        assert buf.read() == b"abcdef"
        assert not buf.has_gap()

    def test_duplicate_and_overlap_trimmed(self):
        buf = ReceiveBuffer(rcv_nxt=0)
        buf.offer(0, b"abcd")
        assert buf.offer(0, b"abcd") == 0     # pure duplicate
        assert buf.offer(2, b"cdEF") == 2     # overlap trimmed
        assert buf.read() == b"abcdEF"

    def test_window_shrinks_with_unread_data(self):
        buf = ReceiveBuffer(rcv_nxt=0, capacity=100)
        buf.offer(0, b"x" * 60)
        assert buf.window() == 40
        buf.read()
        assert buf.window() == 100

    def test_ooo_data_counts_against_window(self):
        buf = ReceiveBuffer(rcv_nxt=0, capacity=100)
        buf.offer(50, b"y" * 30)
        assert buf.window() == 70

    def test_partial_read(self):
        buf = ReceiveBuffer(rcv_nxt=0)
        buf.offer(0, b"abcdef")
        assert buf.read(2) == b"ab"
        assert buf.read(100) == b"cdef"

    def test_sack_blocks_merged_and_highest_first(self):
        buf = ReceiveBuffer(rcv_nxt=0)
        buf.offer(10, b"aa")
        buf.offer(12, b"bb")     # merges with previous
        buf.offer(30, b"cc")
        blocks = buf.sack_blocks()
        assert blocks[0] == (30, 32)
        assert blocks[1] == (10, 14)


segments = st.lists(
    st.tuples(st.integers(0, 40), st.integers(1, 20)),
    min_size=1, max_size=40,
)


@settings(max_examples=200)
@given(segments)
def test_property_any_arrival_order_reassembles(spans):
    """Whatever overlapping/duplicated segments arrive, the delivered
    bytestream is exactly the in-order prefix of the original data."""
    original = bytes(range(256)) * 1
    data = (original * 2)[:80]
    buf = ReceiveBuffer(rcv_nxt=0)
    delivered = bytearray()
    covered = set()
    for offset, length in spans:
        piece = data[offset:offset + length]
        if not piece:
            continue
        buf.offer(offset, piece)
        covered.update(range(offset, offset + len(piece)))
        delivered += buf.read()
    # The readable prefix must be the longest contiguous run from 0.
    expected_len = 0
    while expected_len in covered:
        expected_len += 1
    assert len(delivered) == expected_len
    assert bytes(delivered) == data[:expected_len]


class _ScanningReceiveBuffer(ReceiveBuffer):
    """The reassembly ReceiveBuffer had before it kept its out-of-order
    state incrementally -- a dict scan per arriving segment, a sort and
    merge per ACK -- kept as the oracle."""

    def offer(self, seq, data):
        if not data:
            return 0
        end = seq + len(data)
        if end <= self.rcv_nxt:
            return 0
        if seq < self.rcv_nxt:
            data = data[self.rcv_nxt - seq:]
            seq = self.rcv_nxt
        limit = self.rcv_nxt + self.window() + len(self._readable)
        if seq >= limit + self.capacity:
            return 0
        if seq > self.rcv_nxt:
            existing = self._ooo.get(seq)
            if existing is None:
                self._ooo[seq] = data
                self._ooo_bytes += len(data)
            elif len(existing) < len(data):
                self._ooo[seq] = data
                self._ooo_bytes += len(data) - len(existing)
            return 0
        delivered = len(data)
        self._readable += data
        self.rcv_nxt = end
        while True:
            nxt = next(((s, d) for s, d in self._ooo.items()
                        if s <= self.rcv_nxt), None)
            if nxt is None:
                break
            seq2, data2 = nxt
            del self._ooo[seq2]
            self._ooo_bytes -= len(data2)
            if seq2 + len(data2) <= self.rcv_nxt:
                continue
            if seq2 < self.rcv_nxt:
                data2 = data2[self.rcv_nxt - seq2:]
            self._readable += data2
            delivered += len(data2)
            self.rcv_nxt += len(data2)
        return delivered

    def sack_blocks(self, limit=3):
        if not self._ooo:
            return []
        spans = sorted((seq, seq + len(d)) for seq, d in self._ooo.items())
        merged = [list(spans[0])]
        for start, end in spans[1:]:
            if start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        merged.sort(key=lambda b: b[1], reverse=True)
        return [tuple(b) for b in merged[:limit]]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 400), st.integers(1, 60)),
                min_size=1, max_size=80),
       st.sampled_from([1 << 20, 150]))
def test_property_incremental_reassembly_equals_scanning(spans, capacity):
    """Reordered, duplicated and overlapping segments (containment
    included): after every arrival the incremental buffer reports the
    same delivered count, SACK blocks, gap flag, advertised window and
    ``rcv_nxt`` as the scan-and-sort implementation, and the same
    bytes come out."""
    data = bytes((7 * i) % 251 for i in range(460))
    new = ReceiveBuffer(rcv_nxt=0, capacity=capacity)
    old = _ScanningReceiveBuffer(rcv_nxt=0, capacity=capacity)
    for step, (offset, length) in enumerate(spans):
        piece = data[offset:offset + length]
        assert new.offer(offset, piece) == old.offer(offset, piece)
        assert new.sack_blocks() == old.sack_blocks()
        assert new.sack_blocks(limit=2) == old.sack_blocks(limit=2)
        assert new.has_gap() == old.has_gap()
        assert new.window() == old.window()
        assert new.rcv_nxt == old.rcv_nxt
        if step % 3 == 0:
            assert new.read() == old.read()
    assert new.read() == old.read()


class TestSendBufferZeroCopy:
    def test_peek_within_one_chunk_is_a_view(self):
        buf = SendBuffer(base_seq=0)
        payload = b"a" * 64
        buf.write(payload)
        view = buf.peek(10, 20)
        assert isinstance(view, memoryview)
        assert view == payload[10:30]
        assert view.obj is payload  # zero-copy: same object

    def test_peek_spanning_chunks_gathers(self):
        buf = SendBuffer(base_seq=0)
        buf.write(b"abc")
        buf.write(b"defg")
        buf.write(b"hij")
        assert bytes(buf.peek(1, 7)) == b"bcdefgh"
        assert bytes(buf.peek(0, 100)) == b"abcdefghij"

    def test_peek_clamps_to_end(self):
        buf = SendBuffer(base_seq=5)
        buf.write(b"xyz")
        assert bytes(buf.peek(7, 10)) == b"z"
        assert bytes(buf.peek(8, 10)) == b""

    def test_partial_ack_inside_chunk(self):
        buf = SendBuffer(base_seq=0)
        buf.write(b"0123456789")
        assert buf.ack_to(4) == 4
        assert bytes(buf.peek(4, 6)) == b"456789"
        assert len(buf) == 6
        assert buf.ack_to(10) == 6
        assert len(buf) == 0

    def test_views_stay_valid_after_ack(self):
        buf = SendBuffer(base_seq=0)
        buf.write(b"first-chunk!")
        buf.write(b"second")
        view = buf.peek(0, 12)
        buf.ack_to(12)  # frees the chunk the view points into
        assert bytes(view) == b"first-chunk!"  # immutable: still valid

    def test_ack_churn_compacts_chunk_list(self):
        buf = SendBuffer(base_seq=0)
        for i in range(200):
            buf.write(bytes([i % 256]) * 4)
        for seq in range(4, 680, 4):
            buf.ack_to(seq)
        assert bytes(buf.peek(680, 8)) == bytes([170]) * 4 + bytes([171]) * 4
        assert buf._head <= 32 or buf._head * 2 <= len(buf._chunks)

    def test_bytearray_write_is_copied(self):
        buf = SendBuffer(base_seq=0)
        source = bytearray(b"mutable")
        buf.write(source)
        source[0] = ord("X")
        assert bytes(buf.peek(0, 7)) == b"mutable"


class TestReceiveBufferWindowCache:
    def test_window_tracks_ooo_replacement(self):
        buf = ReceiveBuffer(rcv_nxt=0, capacity=100)
        buf.offer(10, b"a" * 5)
        assert buf.window() == 95
        buf.offer(10, b"b" * 9)   # longer replacement at same seq
        assert buf.window() == 91
        buf.offer(10, b"c" * 3)   # shorter: ignored
        assert buf.window() == 91

    def test_window_restored_after_gap_fills(self):
        buf = ReceiveBuffer(rcv_nxt=0, capacity=100)
        buf.offer(5, b"y" * 10)
        buf.offer(20, b"z" * 7)
        assert buf.window() == 100 - 17
        buf.offer(0, b"x" * 5)    # fills the first gap
        assert buf.window() == 100 - 22   # 15 readable + 7 still ooo
        buf.read()
        assert buf.window() == 93

    def test_window_matches_recount(self):
        buf = ReceiveBuffer(rcv_nxt=0, capacity=1000)
        for seq, data in [(0, b"a" * 10), (30, b"b" * 10), (5, b"c" * 30),
                          (100, b"d" * 5), (35, b"e" * 70)]:
            buf.offer(seq, data)
            used = len(buf._readable) + sum(len(d) for d in buf._ooo.values())
            assert buf.window() == max(buf.capacity - used, 0)
