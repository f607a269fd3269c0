"""Hostile bytes where a handshake is expected.

A client waiting for the ServerHello and a server waiting for the
ClientHello parse whatever arrives.  Every decoder in
:mod:`repro.tls.handshake_messages` and :mod:`repro.tls.extensions`
raises :class:`~repro.tls.record.TlsError` on truncated or malformed
bytes, so the outcome is a failed connection (``conn_failed("tls:...")``
on the client, ``ABORTED`` on the server) or a handshake still waiting
for bytes -- never an exception out of the engine.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import PSK

from repro.core.drivers import ReplayTransport, StubDriver
from repro.core.engine import TcplsClientEngine, TcplsServerEngine
from repro.core.engine.connection import FAILED
from repro.core.engine.interfaces import PlainAddress, PlainEndpoint
from repro.tls import Extension, TlsClient, TlsServer
from repro.tls.extensions import EXT_KEY_SHARE
from repro.tls.handshake_messages import ClientHello, ServerHello
from repro.tls.record import (
    CONTENT_HANDSHAKE,
    TlsError,
    encode_plaintext_record,
)

SERVER = PlainEndpoint(PlainAddress("server"), 443)


def waiting_client():
    """A client engine in WAIT_SH and the reasons it failed with."""
    client = TcplsClientEngine(StubDriver(), PSK)
    failures = []
    client.on_conn_failed = lambda conn, reason: failures.append(reason)
    conn = client.connect(PlainAddress("client"), SERVER)
    conn.tcp.on_established(conn.tcp)
    assert conn.tls._state == "WAIT_SH"
    return client, conn, failures


def fresh_server():
    """A server engine with one accepted transport, before any byte."""
    server = TcplsServerEngine(StubDriver(), 443, PSK)
    aborted = []
    server.on_aborted = aborted.append
    transport = ReplayTransport()
    server.listener.on_accept(transport)
    return transport, aborted


def test_a_two_byte_server_hello_fails_the_connection():
    client, conn, failures = waiting_client()
    client.bytes_received(conn, bytes.fromhex("1603030006020000020000"))
    assert failures == ["tls:truncated ServerHello"]
    assert conn.state == FAILED and conn.tcp.aborted


def test_a_malformed_key_share_fails_the_connection():
    client, conn, failures = waiting_client()
    hello = ServerHello(bytes(32), 0xFF01,
                        [Extension(EXT_KEY_SHARE, b"\xab\xcd")])
    client.bytes_received(conn, encode_plaintext_record(
        CONTENT_HANDSHAKE, hello.encode()))
    assert failures == ["tls:malformed key_share: ffdhe2048 public value "
                        "must be 256 bytes"]


@pytest.mark.parametrize("body", [
    b"", b"\x03\x03", b"\x03\x03" + bytes(31),
    b"\x03\x03" + bytes(33) + b"\x00\x02\x13",     # half a suite
    b"\x03\x03" + bytes(33) + b"\x00\x00\x01",     # compression cut off
])
def test_a_truncated_client_hello_is_a_tls_error(body):
    with pytest.raises(TlsError):
        ClientHello.decode(body)


def _flights():
    """A real client first flight and a real server answer to it."""
    rng = random.Random(5)
    tls_client = TlsClient(PSK, rng)
    tls_client.start()
    hello = tls_client.data_to_send()
    tls_server = TlsServer(PSK, rng)
    tls_server.feed(hello)
    return hello, tls_server.data_to_send()


CLIENT_HELLO, SERVER_FLIGHT = _flights()


@st.composite
def hostile(draw, genuine):
    """Raw bytes, a record of random type around random bytes, a
    handshake message of random type in a record, or a genuine flight
    cut short with a few bytes overwritten."""
    kind = draw(st.sampled_from(["raw", "record", "message", "mutated"]))
    if kind == "raw":
        return draw(st.binary(max_size=200))
    if kind == "mutated":
        data = bytearray(genuine[:draw(st.integers(0, len(genuine)))])
        for _ in range(draw(st.integers(0, 3)) if data else 0):
            data[draw(st.integers(0, len(data) - 1))] = draw(
                st.integers(0, 255))
        return bytes(data)
    body = draw(st.binary(max_size=200))
    if kind == "message":
        msg_type = draw(st.sampled_from([1, 2, 8, 20]) | st.integers(0, 255))
        body = bytes([msg_type]) + len(body).to_bytes(3, "big") + body
    content_type = draw(st.sampled_from([20, 21, 22, 23])
                        | st.integers(0, 255))
    return bytes([content_type, 3, 3]) + len(body).to_bytes(2, "big") + body


PROPERTY = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@PROPERTY
@given(data=hostile(SERVER_FLIGHT))
def test_hostile_bytes_to_a_client_waiting_for_the_server_hello(data):
    client, conn, failures = waiting_client()
    client.bytes_received(conn, data)
    assert len(failures) <= 1
    assert all(reason.startswith("tls:") for reason in failures)
    assert conn.tcp.aborted == (conn.state == FAILED) == bool(failures)


@PROPERTY
@given(data=hostile(CLIENT_HELLO))
def test_hostile_bytes_to_a_server_waiting_for_the_client_hello(data):
    transport, aborted = fresh_server()
    transport.inject(data)
    assert len(aborted) <= 1
    assert transport.aborted == bool(aborted)
