"""Header prediction only routes.

``TcpConnection.receive_segment`` sends an established connection's
plain ACK-flagged segments straight to ``_process_ack`` /
``_process_payload`` and everything else to ``_rx_established_family``.
The property: one seeded transfer -- with loss, reordering and SACK, a
receiver that stops reading until its window closes, a FIN sent with
half the data still unacknowledged, an advertised window that moves
while its receiver has nothing outstanding, and a middlebox that
rebuilds every flag set (so no segment is predicted on that direction)
-- run once as the
product runs it and once with every segment of a synchronised
connection pushed through ``_rx_established_family`` by this test,
yields the same events, ``tcp_info()`` (sampled throughout) and
``LinkStats``.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.net import Simulator, build_faulty_multipath
from repro.net.address import Endpoint
from repro.net.faults import GilbertElliott
from repro.net.middlebox import Middlebox
from repro.obs import CaptureSink
from repro.tcp import TcpStack
from repro.tcp.connection import SYN_RCVD, SYN_SENT, TcpConnection

SIZE = 96 << 10
REPLY = 24 << 10
GREETING = 4096
HORIZON = 30.0

_predicting = TcpConnection.receive_segment
_family = TcpConnection._rx_established_family


def _never_predict(self, segment, packet):
    """``receive_segment`` with the prediction taken out: what every
    segment of a synchronised connection did before it existed."""
    if self.state in (SYN_SENT, SYN_RCVD) or segment.is_rst:
        return _predicting(self, segment, packet)
    self.segments_received += 1
    self.last_segment_received = self.sim.now
    self._rx_established_family(segment)
    if self._uto_spent:
        self._arm_uto()


class FlagRebuilder(Middlebox):
    """Re-serialises the header: equal flags in a new frozenset."""

    def process(self, packet):
        self.processed += 1
        segment = packet.payload
        packet.payload = segment.replace(flags=frozenset(set(segment.flags)))
        return packet


def run_transfer(seed, p_gb, reorder, small_window, rebuild_flags):
    """The server greets with GREETING bytes, which the client leaves
    unread (its advertised window short by as much) until a quarter of
    its upload is acknowledged.  The client uploads SIZE bytes and
    closes once half are acknowledged (FIN behind data in flight); the
    server answers REPLY bytes once it has read them all and closes.
    Returns everything the two runs must agree on -- whether or not a
    lossy transfer got to its end inside HORIZON -- and how many
    segments took the family path."""
    sim = Simulator(seed=seed)
    topo = build_faulty_multipath(sim, n_paths=1, families=[4])
    path = topo.path(0)
    if p_gb:
        path.c2s.add_fault(GilbertElliott(p_gb, 0.3, loss_bad=0.9,
                                          seed=seed + 1))
        path.s2c.add_fault(GilbertElliott(p_gb / 2, 0.3, loss_bad=0.9,
                                          seed=seed + 2))
    if reorder:
        # An infinite-rate pipe with jitter is the one link that
        # reorders (a rate-limited one clamps to FIFO).
        path.c2s.rate_bps, path.c2s.jitter = None, 0.004
    if rebuild_flags:
        path.s2c.add_middlebox(FlagRebuilder())
    capture = CaptureSink()
    sim.bus.subscribe(capture)
    cstack, sstack = TcpStack(sim, topo.client), TcpStack(sim, topo.server)
    payload = bytes((i * 37 + 11) % 256 for i in range(SIZE))
    received, replied, accepted = bytearray(), bytearray(), []

    def drain(conn):
        received.extend(conn.recv())
        if len(received) >= SIZE and not replied:
            replied.extend(b"r" * REPLY)
            conn.send(bytes(replied))
            conn.close()

    def on_server_data(conn):
        if not small_window:
            drain(conn)
        elif conn.rcv_buf.capacity != 8192:
            # Read only on a timer: the 8 KiB window closes between
            # reads and every read reopens it with a window update.
            conn.rcv_buf.capacity = 8192

            def tick():
                drain(conn)
                if conn.is_open():
                    sim.schedule(0.05, tick)
            sim.schedule(0.05, tick)

    def on_accept(conn):
        accepted.append(conn)
        conn.on_data = on_server_data
        conn.on_established = lambda c: c.send(b"g" * GREETING)

    sstack.listen(443, on_accept)
    client = cstack.connect(path.client_addr, Endpoint(path.server_addr, 443))
    echoed = bytearray()
    client.on_established = lambda conn: conn.send(payload)

    def read_echo(conn):
        if conn.bytes_acked >= SIZE // 4:
            echoed.extend(conn.recv())
    client.on_data = read_echo

    def on_upload_acked(conn):
        read_echo(conn)
        if conn.bytes_acked >= SIZE // 2:
            conn.close()
    client.on_send_space = on_upload_acked

    samples = []

    def sample():
        samples.append([c.tcp_info() for c in [client] + accepted])
        if sim.now < 1.5:
            sim.schedule(0.01, sample)
    sim.schedule(0.01, sample)

    family_calls = []

    def counted(self, segment):
        family_calls.append(segment)
        return _family(self, segment)

    with mock.patch.object(TcpConnection, "_rx_established_family", counted):
        sim.run(until=HORIZON)
    (server,) = accepted
    return {
        "complete": (bytes(received) == payload
                     and len(echoed) == GREETING + REPLY),
        "samples": samples,
        "events": [(e.time, e.category, e.name, e.data) for e in capture],
        "info": [conn.tcp_info() for conn in (client, server)],
        "received": [conn.segments_received for conn in (client, server)],
        "links": [(s.tx_packets, s.tx_bytes, s.dropped_packets,
                   s.dropped_bytes, s.drop_reasons)
                  for s in (path.c2s.stats, path.s2c.stats)],
        "finished": sim.now,
    }, len(family_calls)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    p_gb=st.sampled_from([0.0, 0.01, 0.04]),
    reorder=st.booleans(),
    small_window=st.booleans(),
    rebuild_flags=st.booleans(),
)
def test_prediction_changes_no_event_counter_or_byte(
        seed, p_gb, reorder, small_window, rebuild_flags):
    args = (seed, p_gb, reorder, small_window, rebuild_flags)
    predicted, family_calls = run_transfer(*args)
    with mock.patch.object(TcpConnection, "receive_segment",
                           _never_predict):
        forced, forced_calls = run_transfer(*args)
    assert predicted == forced
    assert predicted["complete"] or p_gb
    # the first run did predict (the server's whole inbound direction
    # at least, while it was ESTABLISHED), the second never did
    total = sum(predicted["received"])
    assert forced_calls >= total - 4
    assert family_calls < forced_calls - predicted["received"][1] // 2


def test_rebuilt_flags_miss_the_prediction_and_nothing_else():
    """Equal flags in another frozenset are a miss, not an error: every
    segment the rebuilder touched goes the family way."""
    plain, plain_calls = run_transfer(3, 0.0, False, False, False)
    rebuilt, rebuilt_calls = run_transfer(3, 0.0, False, False, True)
    assert plain["complete"] and rebuilt["complete"]
    assert rebuilt["info"] == plain["info"]
    assert rebuilt["links"] == plain["links"]
    # all the client receives is rebuilt (its SYN-ACK is not the
    # family's to handle); part of it was predicted before
    assert rebuilt_calls > plain_calls
    assert rebuilt_calls >= plain["received"][0] - 1
