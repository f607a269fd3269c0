"""One way a connection dies, whatever killed it.

Every failure reason goes through :meth:`Failover.fail`: the connection
is published once on the bus (``session/conn_failed``) and once to the
``CONN_FAILED`` handlers, it can no longer be written, and its queue of
sealed records is empty -- also when records were queued behind a
transport that took nothing, and when the handshake machine produced
bytes after the failure.  The client's plain-TLS fallback retry is the
one failure that publishes nothing.
"""

import random

import pytest

from helpers import PSK

from repro.core import record as rec
from repro.core.drivers import StubDriver, bootstrap_ready_session
from repro.core.engine import TcplsClientEngine
from repro.core.engine.connection import FAILED
from repro.core.engine.interfaces import PlainAddress, PlainEndpoint
from repro.crypto.aead import get_cipher
from repro.obs import CaptureSink
from repro.tls import TlsServer

SERVER = PlainEndpoint(PlainAddress("server"), 443)
#: a handshake record holding a two-byte ServerHello
HOSTILE_SERVER_HELLO = bytes.fromhex("1603030006020000020000")


def _stuck(engine, conn):
    """Queue a stream's records behind a transport that takes nothing."""
    conn.tcp.capacity = 0
    engine.create_stream(conn).send(b"x" * 1000)
    assert conn.pending_out


def _peer_record(record_type, payload):
    """One record as the peer's primary control stream seals it."""
    peer, pconn = bootstrap_ready_session(is_client=False)
    peer.pump.send_typed(pconn, record_type, payload)
    return pconn.tcp.take_sent()


def _ready(failover=False):
    engine, conn = bootstrap_ready_session()
    if failover:
        engine.enable_failover()
    _stuck(engine, conn)
    return engine, conn


def _ready_client():
    """A ready client engine with one join cookie left."""
    driver = StubDriver()
    client = TcplsClientEngine(driver, PSK)
    client.install_raw_keys(get_cipher("null-tag"), b"\x11" * 32,
                            b"\x33" * 32, b"\x22" * 12, b"\x44" * 12)
    client.tcpls_enabled = True
    client._primary_remote = SERVER
    client.attach_conn(client._open_conn(
        driver.connect(PlainAddress("client"), SERVER)))
    client.session_id, client.cookies = b"s" * 16, [b"c" * 16]
    return client


def rst():
    engine, conn = _ready()
    return engine, conn, lambda: engine.conn_failed(conn, "rst")


def uto():
    engine, conn = _ready(failover=True)
    return engine, conn, lambda: engine.user_timeout_fired(conn)


def fin():
    engine, conn = _ready(failover=True)
    return engine, conn, lambda: engine.conn_closed(conn)


def protocol():
    engine, conn = _ready()
    malformed_ack = _peer_record(rec.RECORD_TYPE_ACK, b"")
    return engine, conn, lambda: engine.bytes_received(conn, malformed_ack)


def sync():
    """The peer's SYNC, arriving on the primary, names the join."""
    engine, primary = bootstrap_ready_session()
    join = engine._open_conn(
        engine.driver.connect(PlainAddress("client2"), SERVER), conn_id=7)
    engine.attach_conn(join)
    _stuck(engine, join)
    record = _peer_record(rec.RECORD_TYPE_SYNC, rec.encode_sync(7, []))
    return engine, join, lambda: engine.bytes_received(primary, record)


def join_timeout():
    client = _ready_client()
    conn = client.join(PlainAddress("client2"), remote=SERVER)
    conn.tcp.capacity = 0
    conn.tcp.on_established(conn.tcp)          # the ClientHello waits
    assert conn.pending_out
    return client, conn, lambda: client.clock.run(until=client.join_timeout)


def join_rejected():
    """The server's EncryptedExtensions lack TCPLS Hello; the client's
    Finished is produced after the join has failed."""
    client = _ready_client()
    conn = client.join(PlainAddress("client2"), remote=SERVER)
    conn.tcp.on_established(conn.tcp)
    server = TlsServer(PSK, random.Random(1))
    server.feed(conn.tcp.take_sent())
    flight = server.data_to_send()
    return client, conn, lambda: client.bytes_received(conn, flight)


def tls():
    client = TcplsClientEngine(StubDriver(), PSK)
    conn = client.connect(PlainAddress("client"), SERVER)
    conn.tcp.capacity = 0
    conn.tcp.on_established(conn.tcp)
    assert conn.pending_out
    return client, conn, lambda: client.bytes_received(
        conn, HOSTILE_SERVER_HELLO)


SCENARIOS = {"rst": rst, "uto": uto, "fin": fin, "sync": sync,
             "protocol": protocol, "join-timeout": join_timeout,
             "join-rejected": join_rejected, "tls:": tls}


@pytest.mark.parametrize("reason", sorted(SCENARIOS))
def test_every_failure_takes_the_one_path(reason):
    engine, conn, fire = SCENARIOS[reason]()
    sink = CaptureSink()
    engine.bus.subscribe(sink, categories=("session",))
    calls = []
    engine.on_conn_failed = lambda failed, why: calls.append((failed, why))
    fire()
    (event,) = sink.select(name="conn_failed")
    (called,) = calls
    assert called[0] is conn and event.data["conn"] == conn.conn_id
    assert event.data["reason"] == called[1]
    assert called[1].startswith(reason) if reason == "tls:" \
        else called[1] == reason
    assert conn.state == FAILED and not conn.writable()
    assert not conn.pending_out and conn.pending_out_bytes == 0


def test_the_fallback_retry_publishes_no_failure():
    """A primary reset during the TCPLS handshake is retried as plain
    TLS, not reported."""
    driver = StubDriver()
    sink = CaptureSink()
    driver.bus.subscribe(sink, categories=("session",))
    client = TcplsClientEngine(driver, PSK)
    calls = []
    client.on_conn_failed = lambda failed, why: calls.append(why)
    conn = client.connect(PlainAddress("client"), SERVER)
    conn.tcp.on_established(conn.tcp)
    client.conn_failed(conn, "rst")
    assert conn.state == FAILED
    assert client.fell_back and not client.enable_tcpls
    assert calls == [] and not sink.select(name="conn_failed")
    driver.clock.run(until=0.0)
    assert len(driver.transports) == 2
    assert [c.tcp for c in client.conns] == [driver.transports[1]]


def test_a_join_that_fails_before_its_client_hello_keeps_its_cookie():
    """A join that times out still CONNECTING never sent its
    ClientHello, so its single-use cookie goes back to the client
    (ROADMAP 1(c) ``paths=4``); one whose ClientHello left has spent
    it."""
    client = _ready_client()
    (cookie,) = client.cookies
    unsent = client.join(PlainAddress("client2"), remote=SERVER)
    assert client.cookies == []
    client.clock.run(until=client.join_timeout)
    assert unsent.state == FAILED and client.cookies == [cookie]
    sent = client.join(PlainAddress("client2"), remote=SERVER)
    sent.tcp.on_established(sent.tcp)
    client.clock.run(until=2 * client.join_timeout)
    assert sent.state == FAILED and client.cookies == []
