"""Back-to-back segment bursts ("trains") edge cases.

A burst is what one ``_try_send`` or ``_retransmit_lost`` emits: it
must stop at the receive-window boundary, survive partial ACKs, and
keep the per-connection burst counters truthful.
"""

from repro.net import Simulator, build_multipath
from repro.net.address import Endpoint
from repro.tcp import TcpStack

from tests.helpers import bulk_receiver, bulk_sender, make_net, tcp_pair


def run_transfer(sim, conn, received, size, until=30.0):
    sim.run_until(lambda: len(received) >= size, timeout=until)
    return bytes(received)


def test_bulk_transfer_emits_trains():
    sim, topo, cstack, sstack = make_net(n_paths=1)
    on_accept, received = bulk_receiver()
    sstack.listen(443, on_accept)
    p = topo.path(0)
    conn = cstack.connect(p.client_addr, Endpoint(p.server_addr, 443))
    payload = bytes(range(256)) * 4096  # 1 MiB
    bulk_sender(conn, payload)
    assert run_transfer(sim, conn, received, len(payload)) == payload
    # A bulk transfer clocks out bursts: each counted burst covers >= 2
    # segments, and never more than were sent.
    assert conn.trains_sent > 0
    assert conn.train_segments_sent >= 2 * conn.trains_sent
    assert conn.train_segments_sent <= conn.segments_sent


def test_train_splits_at_receive_window_boundary():
    """A slow reader closes the advertised window; the burst builder
    must stop exactly where it ends, never overshooting and relying on
    the peer trimming."""
    sim, topo, cstack, sstack = make_net(n_paths=1)
    accepted = []
    sstack.listen(443, accepted.append)
    p = topo.path(0)
    conn = cstack.connect(p.client_addr, Endpoint(p.server_addr, 443))
    # Reader drains slowly on a timer instead of on_data, so the 1 MiB
    # receive buffer fills and the advertised window becomes the
    # binding constraint (not cwnd).
    received = bytearray()

    def slow_drain():
        if accepted:
            received.extend(accepted[0].recv(4096))
        if len(received) < len(payload):
            sim.schedule(0.005, slow_drain)

    payload = b"\xA5" * (3 << 20)  # 3 MiB through a 1 MiB window
    bulk_sender(conn, payload)
    sim.schedule(0.05, slow_drain)
    window_bound = {"hit": False}

    def peer_window_respected():
        # Never more unacked bytes outstanding than the peer advertised
        # (a zero-window persist probe may add a single byte).
        assert conn.bytes_in_flight() <= max(conn.peer_window, 16)
        if 0 < conn.peer_window < conn.cc.cwnd:
            window_bound["hit"] = True
        return len(received) >= len(payload)

    assert sim.run_until(peer_window_respected, check_interval=0.002,
                         timeout=300.0)
    assert bytes(received) == payload
    assert window_bound["hit"], "receive window never became binding"
    assert conn.trains_sent > 0


def test_retransmit_of_partially_acked_train():
    """Drop a mid-burst segment, deliver a cumulative ACK for the
    prefix, and check the retransmission covers exactly the hole."""
    sim, topo, cstack, sstack = make_net(n_paths=1)
    on_accept, received = bulk_receiver()
    sstack.listen(443, on_accept)
    p = topo.path(0)
    conn = cstack.connect(p.client_addr, Endpoint(p.server_addr, 443))
    sim.run(until=1.0)
    assert conn.state == "ESTABLISHED"

    # Drop one data segment out of the middle of the first big burst.
    link = topo.path(0).c2s
    state = {"seen": 0}
    original_sink = link._sink

    def dropper(packet):
        seg = packet.payload
        if seg.payload:
            state["seen"] += 1
            if state["seen"] == 3:   # third data segment of the burst
                state["dropped"] = (seg.seq, seg.seq + len(seg.payload))
                return               # swallowed
        original_sink(packet)

    link.connect(dropper)
    payload = b"\x5A" * (512 * 1024)
    bulk_sender(conn, payload)
    # Connection is already established, so kick the pump by hand.
    conn.on_send_space(conn)
    sim.run_until(lambda: len(received) >= len(payload), timeout=60.0)
    assert bytes(received) == payload
    assert "dropped" in state, "the dropper never saw a mid-burst segment"
    assert conn.retransmissions >= 1
    # Let the final ACK land: the partially-acked burst is fully
    # recovered and everything below snd_nxt is acknowledged again.
    sim.run(until=sim.now + 2.0)
    assert conn.snd_una == conn.snd_nxt


def test_train_counters_zero_without_bulk():
    """Pure handshake + tiny exchange: single-segment sends must not
    book bursts."""
    sim, topo, cstack, sstack = make_net(n_paths=1)
    on_accept, received = bulk_receiver()
    sstack.listen(443, on_accept)
    p = topo.path(0)
    conn = cstack.connect(p.client_addr, Endpoint(p.server_addr, 443))
    sim.run(until=1.0)
    conn.send(b"hi")
    sim.run(until=2.0)
    assert bytes(received) == b"hi"
    assert conn.trains_sent == 0
    assert conn.train_segments_sent == 0
