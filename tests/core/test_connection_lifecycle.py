"""One state per connection (:meth:`ConnectionState.enter
<repro.core.engine.connection.ConnectionState.enter>`), and the stalls
of ROADMAP item 1(c) that the engine's old flags could not name.

- ``paths=2``: the client's last join sent its TLS Finished into an
  outage, so the server never attached it and no stream was bound to
  it.  The client's UTO fired with the Finished unacknowledged, and
  only bound streams counted as a transfer: it re-armed for good.
- ``paths=4``: every join timed out before its TCP handshake finished,
  so no ClientHello left the client, yet each spent a single-use cookie
  and the client ran out of them.
- a peer FIN that stranded records failed the connection without
  closing our half, which stayed in CLOSE_WAIT for the session's life.
"""

import os
import sys

import pytest

from helpers import PSK

from repro.core import TcplsClient, TcplsServer
from repro.core.engine.connection import ENDED, FAILED
from repro.net import Simulator, build_faulty_multipath, build_multipath
from repro.net.address import Endpoint
from repro.tcp import TcpStack

BENCH_DIR = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                         "benchmarks")
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

from matrix_points import POINT_SIZE, fig9_rotation_point  # noqa: E402


def test_a_join_finished_into_an_outage_is_timed_out():
    """Item 1(c) ``paths=2``: the join's own bytes in flight count as a
    pending transfer, so its UTO fails it and the stream fails over."""
    row = fig9_rotation_point(rotate_every=0.35, n_paths=2)
    assert row["bytes_delivered"] == POINT_SIZE
    assert row["done_at"] == pytest.approx(12.556, abs=0.01)


def test_joins_that_never_connected_leave_the_cookies_unspent():
    """Item 1(c) ``paths=4``: with every join failing still CONNECTING
    the client keeps its cookies and keeps probing paths (it stopped at
    786,288 bytes when it spent them all); the rest is slowness."""
    row = fig9_rotation_point(rotate_every=0.35, n_paths=4)
    assert row["bytes_delivered"] > 1_500_000


def _server_closes_mid_upload():
    """Failover on, a join on path 1, a 2 MB upload on the primary, and
    the server closes its session 0.3 s into the upload."""
    sim = Simulator(seed=5)
    topo = build_multipath(sim, n_paths=2, rate_bps=10_000_000, delay=0.01)
    server = TcplsServer(sim, TcpStack(sim, topo.server), 4443, PSK)
    client = TcplsClient(sim, TcpStack(sim, topo.client), psk=PSK)
    path = topo.path(0)
    client.connect(path.client_addr, Endpoint(path.server_addr, 4443))
    sim.run(until=0.5)
    client.enable_failover()
    second = topo.path(1)
    client.join(second.client_addr,
                remote=Endpoint(second.server_addr, 4443))
    sim.run(until=1.0)
    failed = []
    client.on_conn_failed = lambda conn, reason: failed.append(reason)
    client.create_stream(client.conns[0]).send(b"u" * (2 << 20))
    sim.run(until=1.3)
    (session,) = server.sessions.values()
    session.close()
    return sim, server, client, failed


def test_a_fin_failure_closes_our_half():
    sim, _server, client, failed = _server_closes_mid_upload()
    sim.run(until=sim.now + 5.0)
    assert "fin" in failed
    for conn in client.conns:
        if conn.state == FAILED:
            assert conn.tcp.state != "CLOSE_WAIT", conn


def test_the_server_books_hold_the_connections_that_have_not_ended():
    sim, server, _client, _failed = _server_closes_mid_upload()
    (session,) = server.sessions.values()
    assert all(conn.state in ENDED for conn in session.conns)
    assert not server.live & set(session.conns)
    sim.run(until=sim.now + 5.0)
    assert server.live == {conn for conn in server.live
                           if conn.state not in ENDED}
    assert server.stats["teardowns"] + len(server.live) == \
        server.stats["accepts"]


@pytest.mark.xfail(strict=True, reason="ROADMAP 1(e): a client stream "
                   "that never sends its FIN counts as an inbound "
                   "transfer for 2 s after its last delivery")
def test_no_user_timeout_failure_after_a_finished_download():
    """No fault, 4 MiB downloaded by 1.47 s; the server's UTO then fails
    the primary as ``uto`` at 1.74 s, because the client's GET stream
    delivered data within the last 2 s and never sent a FIN."""
    sim = Simulator(seed=1171176839)
    topo = build_faulty_multipath(sim, n_paths=2)
    server = TcplsServer(sim, TcpStack(sim, topo.server), 443, psk=PSK)
    client = TcplsClient(sim, TcpStack(sim, topo.client), psk=PSK)
    size, received, failures = 4 << 20, [], []

    def on_session(session):
        session.enable_failover()
        session.on_conn_failed = lambda conn, reason: failures.append(
            (sim.now, reason))

        def on_request(stream):
            if stream.recv().startswith(b"GET"):
                out = session.create_stream(session.conns[0])
                out.send(b"x" * size)
                out.close()
        session.on_stream_data = on_request

    def on_ready(_session):
        client.set_user_timeout(client.conns[0], 0.25)
        client.create_stream(client.conns[0]).send(b"GET /file")

    server.on_session = on_session
    client.on_ready = on_ready
    client.on_stream_data = lambda stream: received.append(
        len(stream.recv()))
    path = topo.path(0)
    client.connect(path.client_addr, Endpoint(path.server_addr, 443))
    sim.run(until=5.0)
    assert sum(received) == size
    assert failures == []
