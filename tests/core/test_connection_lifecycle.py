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
- a join probe that timed out before it attached was failed over as
  if it carried streams: counted, queued, and later named in a SYNC
  that moved nothing; and ``conn_by_id`` named the first of the probes
  that share the attached join's id.
- a server ``session.close()`` kept the session's join credentials, so
  the client's next join was parked on the server for good.
- a stream steered off a connection that then failed lost the records
  still queued there: only the streams attached to the failed
  connection were replayed.
- a finished download failed the server's primary as ``uto``: the
  client's request stream counted as a stalled inbound transfer on the
  end that cannot act on it.
"""

import os
import sys

import pytest

from helpers import PSK, connect_tcpls, tcpls_pair

from repro.core import TcplsClient, TcplsServer
from repro.core.engine.connection import ATTACHED, ENDED, FAILED, HANDSHAKING
from repro.net import Simulator, build_faulty_multipath, build_multipath
from repro.net.address import Endpoint
from repro.obs import CaptureSink
from repro.tcp import TcpStack

BENCH_DIR = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                         "benchmarks")
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

from matrix_points import POINT_SIZE, fig9_rotation_point  # noqa: E402
from tests.core.test_failover_scenarios import (  # noqa: E402
    download_setup,
    make_faulty_net,
)


def test_a_join_finished_into_an_outage_is_timed_out():
    """Item 1(c) ``paths=2``: the join's own bytes in flight count as a
    pending transfer, so its UTO fails it and the stream fails over."""
    row = fig9_rotation_point(rotate_every=0.35, n_paths=2)
    assert row["bytes_delivered"] == POINT_SIZE
    assert row["done_at"] == pytest.approx(12.454, abs=0.01)


def test_joins_that_never_connected_leave_the_cookies_unspent():
    """Item 1(c) ``paths=4``: with every join failing still CONNECTING
    the client keeps its cookies and keeps probing paths (it stopped at
    786,288 bytes when it spent them all).  A probe that never attached
    is no failover, so no SYNC names it and nothing is replayed for it:
    the download completes inside the 60 s horizon (it had 1,523,433
    bytes by then while every probe failed over)."""
    row = fig9_rotation_point(rotate_every=0.35, n_paths=4)
    assert row["bytes_delivered"] == POINT_SIZE
    assert row["done_at"] == pytest.approx(58.413, abs=0.01)


def test_a_join_that_times_out_while_a_failover_waits_is_no_failover():
    """No backup joined, and the outage takes two of three paths: the
    primary's failover waits while three join probes time out before
    the fourth attaches.  A probe carries no stream, so it only starts
    the next one; the failover that waited is the only one, and its
    SYNC the only SYNC."""
    sim, topo, cstack, sstack = make_faulty_net(n_paths=3, seed=7)
    sink = CaptureSink()
    sim.bus.subscribe(sink, categories=("session", "recovery"))
    client, _sessions, payload, received, done = download_setup(
        sim, topo, cstack, sstack, 2 << 20)
    for index in (0, 1):
        topo.flap_path(index, at=0.5, duration=10.0)
    sim.run(until=20)
    assert done and bytes(received) == payload
    mine = client.obs_id
    timeouts = sink.select(name="conn_failed", session=mine,
                           reason="join-timeout")
    assert len(timeouts) == 3
    assert client.stats["failovers"] == client.stats["syncs_sent"] == 1
    (pending,) = sink.select(name="failover_pending", session=mine)
    assert pending.data["reason"] == "uto"
    (failover,) = sink.select(name="failover", session=mine)
    assert failover.data["from"] == 0 and failover.data["streams"] == 2


def test_a_repeated_conn_id_resolves_to_the_newest_connection():
    """The three join probes that timed out still CONNECTING gave their
    credential back, so the join that attached has their id too;
    ``conn_by_id`` (an ``InputLog`` replay's and a SYNC's lookup) names
    the attached join, not the first failed probe."""
    sim, topo, cstack, sstack = make_faulty_net(n_paths=3, seed=7)
    client, _sessions, payload, received, done = download_setup(
        sim, topo, cstack, sstack, 2 << 20)
    for index in (0, 1):
        topo.flap_path(index, at=0.5, duration=10.0)
    sim.run(until=20)
    assert done and bytes(received) == payload
    *probes, join = client.conns[1:]
    assert [(c.conn_id, c.state) for c in probes] == [
        (join.conn_id, FAILED)] * 3
    assert join.state == ATTACHED
    assert client.conn_by_id(join.conn_id) is join


@pytest.mark.parametrize("upload", [True, False])
def test_a_stream_steered_off_a_connection_that_fails_is_replayed(upload):
    """The client steers a busy stream from the primary to the join and
    the primary's path goes dark at once: the records already queued on
    the primary are lost with it, and the sender's failover replays
    them although the stream has left.  Uploading, the client steers
    its own records; downloading, its STREAM_ATTACH moves the server's."""
    sim, topo, cstack, sstack = make_faulty_net(n_paths=2, seed=7)
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    received = bytearray()
    payload = bytes(range(256)) * (2 << 12)
    sender = client if upload else None

    def on_session(session):
        sessions.append(session)
        session.enable_failover()
        if upload:
            session.on_stream_data = lambda st: received.extend(st.recv())
    server.on_session = on_session
    connect_tcpls(sim, topo, client)
    client.join(topo.path(1).client_addr)
    sim.run(until=sim.now + 0.3)
    client.set_user_timeout(client.conns[0], 0.25)
    if upload:
        stream = client.create_stream(client.conns[0])
    else:
        (sender,) = sessions
        stream = sender.create_stream(sender.conns[0])
        client.on_stream_data = lambda st: received.extend(st.recv())
    stream.send(payload)
    stream.close()
    sim.run(until=sim.now + 0.1)
    client.steer_stream(client.streams[stream.stream_id], client.conns[1])
    topo.flap_path(0, at=sim.now)
    sim.run(until=sim.now + 20)
    assert bytes(received) == payload
    assert sender.stats["records_replayed"] > 0


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


def test_a_closed_server_session_parks_no_join():
    """Closing a server session revokes its join credentials, as
    retiring it does: the client's failover joins are refused, and none
    is left HANDSHAKING on the server or parked in the session."""
    sim, server, _client, _failed = _server_closes_mid_upload()
    (session,) = server.sessions.values()
    sim.run(until=sim.now + 5.0)
    assert not [conn for conn in server.live
                if conn.session is session and conn.state == HANDSHAKING]
    assert session.parked == []
    assert not session.outstanding


def _answering_pair(sim, topo, size):
    """A client and a failover-enabled server that answers each GET
    with ``size`` bytes and a FIN on a stream of its own; returns the
    client, the byte counts it received and the connection failures
    of both ends as ``(time, reason)``."""
    server = TcplsServer(sim, TcpStack(sim, topo.server), 443, psk=PSK)
    client = TcplsClient(sim, TcpStack(sim, topo.client), psk=PSK)
    received, failures = [], []

    def on_failed(_conn, reason):
        failures.append((sim.now, reason))

    def on_session(session):
        session.enable_failover()
        session.on_conn_failed = on_failed

        def on_request(stream):
            if stream.recv().startswith(b"GET"):
                out = session.create_stream(stream.connection)
                out.send(b"x" * size)
                out.close()
        session.on_stream_data = on_request

    server.on_session = on_session
    client.on_stream_data = lambda stream: received.append(
        len(stream.recv()))
    client.on_conn_failed = on_failed
    return client, received, failures


@pytest.mark.parametrize("size", [16 << 10, 1 << 20, 4 << 20])
def test_no_user_timeout_failure_after_a_finished_download(size):
    """No fault: neither end fails a connection once the download is
    done.  It did, as ``uto``, at every size (16 KiB at 0.363 s, 1 MiB
    at 0.738 s, 4 MiB at 1.738 s): the client's GET stream, which never
    sends a FIN, counted as a stalled inbound transfer on the server,
    which cannot act on it, for 2 s after its last delivery."""
    sim = Simulator(seed=1171176839)
    topo = build_faulty_multipath(sim, n_paths=2)
    client, received, failures = _answering_pair(sim, topo, size)

    def on_ready(_session):
        client.set_user_timeout(client.conns[0], 0.25)
        client.create_stream(client.conns[0]).send(b"GET /file")

    client.on_ready = on_ready
    path = topo.path(0)
    client.connect(path.client_addr, Endpoint(path.server_addr, 443))
    sim.run(until=5.0)
    assert sum(received) == size
    assert failures == []


@pytest.mark.xfail(strict=True, reason="ROADMAP 1(e): a one-record "
                   "request stream is never record-acked, so its "
                   "unacked record counts as a pending transfer")
def test_no_user_timeout_failure_after_a_second_finished_request():
    """Both responses arrive, yet the client fails conn 0 as ``uto`` at
    3.713 s: the silence after ``GET /b``'s response reaches the UTO,
    and ``GET /a``'s stream still holds its one record, unacked, which
    ``_has_pending_transfer`` counts as a transfer."""
    sim = Simulator(seed=7)
    topo = build_multipath(sim, n_paths=2, delay=0.1)
    client, received, failures = _answering_pair(sim, topo, 20000)

    def on_ready(_session):
        client.set_user_timeout(client.conns[0], 0.25)
        client.create_stream(client.conns[0]).send(b"GET /a")

    client.on_ready = on_ready
    path = topo.path(0)
    client.connect(path.client_addr, Endpoint(path.server_addr, 443))
    sim.run(until=3.0)
    client.create_stream(client.conns[0]).send(b"GET /b")
    sim.run(until=6.0)
    assert sum(received) == 40000
    assert failures == []
