"""TCP connection behaviour over the simulated network."""

import pytest

from helpers import bulk_receiver, bulk_sender, make_net, tcp_pair

from repro.net.address import Endpoint
from repro.tcp.connection import TcpConnection


def test_three_way_handshake():
    sim, topo, cstack, sstack = make_net(n_paths=1)
    conn, accepted = tcp_pair(sim, topo, cstack, sstack)
    established = []
    conn.on_established = lambda c: established.append(sim.now)
    sim.run(until=1.0)
    assert conn.state == "ESTABLISHED"
    assert accepted[0].state == "ESTABLISHED"
    # One RTT: 2 x 10 ms.
    assert established[0] == pytest.approx(0.02, abs=0.005)


def test_bidirectional_transfer():
    sim, topo, cstack, sstack = make_net(n_paths=1)
    server_rx = bytearray()
    client_rx = bytearray()

    def on_accept(server_conn):
        def on_data(c):
            server_rx.extend(c.recv())
            if len(server_rx) == 5000:
                c.send(b"pong" * 500)
        server_conn.on_data = on_data

    sstack.listen(443, on_accept)
    p = topo.path(0)
    conn = cstack.connect(p.client_addr, Endpoint(p.server_addr, 443))
    conn.on_established = lambda c: c.send(b"ping" + b"x" * 4996)
    conn.on_data = lambda c: client_rx.extend(c.recv())
    sim.run(until=5)
    assert len(server_rx) == 5000
    assert bytes(client_rx) == b"pong" * 500


@pytest.mark.parametrize("cc", ["cubic", "reno", "vegas"])
def test_bulk_transfer_integrity_and_goodput(cc):
    sim, topo, cstack, sstack = make_net(n_paths=1, families=[4])
    payload = bytes(range(256)) * (4 << 12)  # 4 MiB patterned
    on_accept, received = bulk_receiver()
    sstack.listen(443, on_accept)
    p = topo.path(0)
    conn = cstack.connect(p.client_addr, Endpoint(p.server_addr, 443),
                          cc=cc)
    bulk_sender(conn, payload)
    sim.run(until=60)
    assert bytes(received) == payload
    # 4 MiB over a 25 Mbps link should take < 3 s at decent utilisation.
    info = conn.tcp_info()
    assert info["bytes_acked"] == len(payload)


def test_transfer_survives_random_loss():
    sim, topo, cstack, sstack = make_net(n_paths=1, families=[4])
    topo.path(0).c2s.loss_rate = 0.02
    topo.path(0).s2c.loss_rate = 0.02
    payload = bytes(range(256)) * 2048  # 512 KiB
    on_accept, received = bulk_receiver()
    sstack.listen(443, on_accept)
    p = topo.path(0)
    conn = cstack.connect(p.client_addr, Endpoint(p.server_addr, 443))
    bulk_sender(conn, payload)
    sim.run(until=120)
    assert bytes(received) == payload
    assert conn.retransmissions > 0


def test_graceful_close_fin_handshake():
    sim, topo, cstack, sstack = make_net(n_paths=1)
    closed = []

    def on_accept(server_conn):
        server_conn.on_data = lambda c: c.recv()
        server_conn.on_close = lambda c: (closed.append("server"),
                                          c.close())

    sstack.listen(443, on_accept)
    p = topo.path(0)
    conn = cstack.connect(p.client_addr, Endpoint(p.server_addr, 443))

    def on_established(c):
        c.send(b"bye")
        c.close()

    conn.on_established = on_established
    sim.run(until=10)
    assert "server" in closed
    assert conn.state == "CLOSED"


def test_rst_on_connect_to_closed_port():
    sim, topo, cstack, sstack = make_net(n_paths=1)
    reset = []
    p = topo.path(0)
    conn = cstack.connect(p.client_addr, Endpoint(p.server_addr, 9999))
    conn.on_reset = lambda c: reset.append(sim.now)
    sim.run(until=2)
    assert reset and conn.state == "CLOSED"


def test_spurious_rst_mid_transfer():
    sim, topo, cstack, sstack = make_net(n_paths=1)
    on_accept, received = bulk_receiver()
    sstack.listen(443, on_accept)
    p = topo.path(0)
    conn = cstack.connect(p.client_addr, Endpoint(p.server_addr, 443))
    reset = []
    conn.on_reset = lambda c: reset.append(sim.now)
    bulk_sender(conn, b"z" * (1 << 20))
    topo.rst_path(0, at=0.2)
    sim.run(until=5)
    assert reset and reset[0] == pytest.approx(0.21, abs=0.05)


def test_user_timeout_fires_on_silence():
    sim, topo, cstack, sstack = make_net(n_paths=1)
    on_accept, _ = bulk_receiver()
    sstack.listen(443, on_accept)
    p = topo.path(0)
    conn = cstack.connect(p.client_addr, Endpoint(p.server_addr, 443))
    fired = []
    bulk_sender(conn, b"x" * (2 << 20))  # keeps data in flight
    conn.set_user_timeout(0.25)
    conn.on_user_timeout = lambda c: fired.append(sim.now)
    topo.flap_path(0, at=0.5)
    sim.run(until=5)
    # The first UTO/4 check tick (established at 0.02002816 s) at which
    # the silence since the last segment reaches 250 ms -- once.
    assert conn.last_segment_received == pytest.approx(0.49992, abs=1e-6)
    assert fired == [pytest.approx(0.77002816, abs=1e-9)]


def test_user_timeout_idle_connection_does_not_fire():
    """RFC 5482 covers in-flight data: a quiescent connection with the
    timeout armed must stay up."""
    sim, topo, cstack, sstack = make_net(n_paths=1)
    on_accept, _ = bulk_receiver()
    sstack.listen(443, on_accept)
    p = topo.path(0)
    conn = cstack.connect(p.client_addr, Endpoint(p.server_addr, 443))
    fired = []

    def on_established(c):
        c.set_user_timeout(0.25)
        c.send(b"x" * 5000)  # fully delivered, then silence

    conn.on_established = on_established
    conn.on_user_timeout = lambda c: fired.append(sim.now)
    sim.run(until=5)
    assert not fired


def test_user_timeout_counts_a_send_after_idling_from_the_send():
    """A send on a connection idle for 5 s starts a new silence: the
    timeout must not fire before the send's ACK, one 200 ms RTT on."""
    sim, topo, cstack, sstack = make_net(n_paths=1, delay=0.1)
    on_accept, received = bulk_receiver()
    sstack.listen(443, on_accept)
    p = topo.path(0)
    conn = cstack.connect(p.client_addr, Endpoint(p.server_addr, 443))
    conn.set_user_timeout(0.25)
    fired = []
    conn.on_user_timeout = lambda c: fired.append(sim.now)
    sim.run(until=5.0)
    conn.send(b"x" * 1000)
    sim.run(until=5.5)
    assert conn.bytes_acked == 1000 and len(received) == 1000
    assert fired == []


def test_user_timeout_on_an_idle_connection_runs_one_check(monkeypatch):
    """The UTO check is computed, not polled: a minute of idling with
    the timeout armed runs the check at most once."""
    checks = []
    check = TcpConnection._check_uto

    def counted(self):
        checks.append(self.sim.now)
        check(self)

    monkeypatch.setattr(TcpConnection, "_check_uto", counted)
    sim, topo, cstack, sstack = make_net(n_paths=1)
    conn, _accepted = tcp_pair(sim, topo, cstack, sstack)
    conn.set_user_timeout(0.25)
    sim.run(until=60.0)
    assert conn.state == "ESTABLISHED"
    assert len(checks) <= 1


def test_user_timeout_cleared_mid_transfer_does_not_fire():
    sim, topo, cstack, sstack = make_net(n_paths=1)
    on_accept, _ = bulk_receiver()
    sstack.listen(443, on_accept)
    p = topo.path(0)
    conn = cstack.connect(p.client_addr, Endpoint(p.server_addr, 443))
    fired = []
    bulk_sender(conn, b"x" * (2 << 20))
    conn.set_user_timeout(0.25)
    conn.on_user_timeout = lambda c: fired.append(sim.now)
    topo.flap_path(0, at=0.5)
    sim.at(0.6, conn.set_user_timeout, None)
    sim.run(until=5)
    assert fired == []


def test_user_timeout_quiet_when_traffic_flows():
    sim, topo, cstack, sstack = make_net(n_paths=1)
    on_accept, received = bulk_receiver()
    sstack.listen(443, on_accept)
    p = topo.path(0)
    conn = cstack.connect(p.client_addr, Endpoint(p.server_addr, 443))
    fired = []
    progress = bulk_sender(conn, b"y" * (2 << 20))
    conn.on_user_timeout = lambda c: fired.append(sim.now)
    conn.set_user_timeout(0.25)
    sim.run(until=10)
    assert not fired
    assert progress["sent"] == 2 << 20


def test_zero_window_then_reopen():
    sim, topo, cstack, sstack = make_net(n_paths=1)
    holder = []

    def on_accept(server_conn):
        holder.append(server_conn)  # do NOT read: window closes

    sstack.listen(443, on_accept)
    p = topo.path(0)
    conn = cstack.connect(p.client_addr, Endpoint(p.server_addr, 443))
    payload = b"w" * (3 << 20)  # 3 MiB > 1 MiB receive buffer
    bulk_sender(conn, payload)
    drained = bytearray()

    def drain():
        if holder:
            drained.extend(holder[0].recv())
        if len(drained) < len(payload):
            sim.schedule(0.05, drain)

    sim.at(3.0, drain)  # receiver finally starts reading
    sim.run(until=60)
    assert bytes(drained) == payload


def test_tcp_info_fields():
    sim, topo, cstack, sstack = make_net(n_paths=1)
    on_accept, _ = bulk_receiver()
    sstack.listen(443, on_accept)
    p = topo.path(0)
    conn = cstack.connect(p.client_addr, Endpoint(p.server_addr, 443))
    bulk_sender(conn, b"i" * 100000)
    sim.run(until=5)
    info = conn.tcp_info()
    assert info["state"] == "ESTABLISHED"
    assert info["srtt"] == pytest.approx(0.02, abs=0.02)
    assert info["bytes_acked"] == 100000
    assert info["cwnd_bytes"] > 0
    assert info["ca_name"] == "cubic"


def test_tfo_second_connection_carries_data_on_syn():
    sim, topo, cstack, sstack = make_net(n_paths=1)
    cstack.tfo_enabled = True
    sstack.tfo_enabled = True
    got = []

    def on_accept(server_conn):
        server_conn.on_data = lambda c: got.append((sim.now, c.recv()))

    sstack.listen(443, on_accept)
    p = topo.path(0)
    # First connection: requests a cookie.
    conn1 = cstack.connect(p.client_addr, Endpoint(p.server_addr, 443))
    conn1.on_established = lambda c: c.close()
    sim.run(until=2)
    assert cstack.tfo_cookie_for(p.server_addr) != b""
    # Second connection: data rides the SYN and arrives in half an RTT.
    start = sim.now
    cstack.connect(p.client_addr, Endpoint(p.server_addr, 443),
                   tfo_data=b"GET /tfo")
    sim.run(until=start + 1)
    times = [t for t, d in got if d == b"GET /tfo"]
    assert times and times[0] - start == pytest.approx(0.01, abs=0.005)
