"""SocketDriver integration: the same engine over real OS loopback.

The acceptance test for the sans-I/O split: a multi-stream transfer
with record-level encryption runs over actual kernel TCP sockets,
driven by the identical :mod:`repro.core.engine` code path the
simulator tests exercise.  Marked ``smoke`` (real sockets + wall-clock
time; excluded from environments without loopback networking).
"""

import pytest

from repro.core.drivers.sockets import SocketDriver
from repro.core.engine import TcplsClientEngine, TcplsServerEngine

pytestmark = pytest.mark.smoke

PSK = b"socket-driver-test-psk"


def _connect_pair(driver, cipher="chacha20poly1305", **server_kwargs):
    sessions = []
    server = TcplsServerEngine(driver, 0, PSK, cipher_names=(cipher,),
                               **server_kwargs)
    server.on_session = sessions.append
    client = TcplsClientEngine(driver, PSK, cipher_names=(cipher,))
    ready = []
    client.on_ready = ready.append
    client.connect(None, driver.endpoint("127.0.0.1", server.port))
    driver.run_until(lambda: ready and sessions, timeout=10.0)
    return client, server, sessions[0]


def test_handshake_over_loopback_negotiates_tcpls():
    driver = SocketDriver()
    try:
        client, _server, session = _connect_pair(driver)
        assert client.tcpls_enabled
        assert client.session_id == session.session_id
        assert len(client.cookies) > 0
    finally:
        driver.close()


def test_multi_stream_encrypted_transfer_over_loopback():
    driver = SocketDriver()
    try:
        client, _server, session = _connect_pair(driver)
        received = {}

        def on_stream_data(stream):
            received.setdefault(stream.stream_id, bytearray()).extend(
                stream.recv())

        session.on_stream_data = on_stream_data

        payloads = {}
        for fill in (b"A", b"B"):
            stream = client.create_stream(client.conns[0])
            payloads[stream.stream_id] = fill * (128 * 1024)
            stream.send(payloads[stream.stream_id])
            stream.close()
        assert len(payloads) == 2

        driver.run_until(
            lambda: all(len(received.get(sid, b"")) == len(body)
                        for sid, body in payloads.items()),
            timeout=30.0,
        )
        for sid, body in payloads.items():
            assert bytes(received[sid]) == body
        # Record-level encryption actually happened on both ends.
        assert client.stats["bytes_sealed"] >= 2 * 128 * 1024
        assert session.stats["bytes_opened"] >= 2 * 128 * 1024
    finally:
        driver.close()


def test_aes_gcm_connection_builds_four_ghash_tables(monkeypatch):
    """One handshake and one upload: the four handshake-traffic keys
    hash a dozen blocks each and never repay a table (they were four of
    the eight builds); the sender's and the receiver's application keys
    build their byte table and their H^64 table."""
    from repro.crypto import gcm

    builds = []
    build = gcm._build_ghash_tables
    monkeypatch.setattr(gcm, "_build_ghash_tables",
                        lambda h: builds.append(h) or build(h))
    driver = SocketDriver()
    try:
        client, _server, session = _connect_pair(driver, cipher="aes128gcm")
        assert not builds
        received = bytearray()
        session.on_stream_data = lambda s: received.extend(s.recv())
        stream = client.create_stream(client.conns[0])
        stream.send(b"G" * (64 * 1024))
        stream.close()
        driver.run_until(lambda: len(received) == 64 * 1024, timeout=30.0)
        assert bytes(received) == b"G" * (64 * 1024)
    finally:
        driver.close()
    assert 2 <= len(builds) <= 4


def _load_example():
    import importlib.util
    import pathlib

    path = (pathlib.Path(__file__).resolve().parents[2]
            / "examples" / "loopback_sockets.py")
    spec = importlib.util.spec_from_file_location("loopback_sockets", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_echo_roundtrip_via_example_helper():
    example = _load_example()
    echo, received = example.run_echo_and_transfer(payload_kib=32,
                                                   verbose=False)
    assert echo == b"echo:hello over real sockets"
    lengths = sorted(len(v) for v in received.values())
    assert lengths[-2:] == [32 * 1024, 32 * 1024]


def test_hundred_connection_storm_over_loopback():
    """Accept/echo/close storm: 100 kernel-socket TCPLS sessions into
    one :class:`MultiSessionServer` on a single selectors loop --
    every session isolated, every byte echoed, table drained to zero
    after the close wave.  psk_ke handshakes keep it CI-safe."""
    from repro.core.drivers.multi import MultiSessionServer

    n_clients = 100
    driver = SocketDriver(backlog=256)
    try:
        mux = MultiSessionServer(driver, 0, PSK, auto_retire=True,
                                 cipher_names=("chacha20poly1305",))

        def serve(session):
            session.on_stream_data = lambda s: s.send(s.recv())

        mux.on_session = serve

        clients = []
        echoes = []
        for i in range(n_clients):
            client = TcplsClientEngine(
                driver, PSK, cipher_names=("chacha20poly1305",),
                key_exchange="psk",
            )
            echo = bytearray()
            client.on_stream_data = \
                (lambda buf: lambda s: buf.extend(s.recv()))(echo)
            client.connect(None, driver.endpoint("127.0.0.1", mux.port))
            clients.append(client)
            echoes.append(echo)

        driver.run_until(lambda: all(c.ready for c in clients),
                         timeout=60.0)
        assert mux.session_count() == n_clients
        assert len(mux.table) == n_clients

        payloads = []
        for i, client in enumerate(clients):
            payload = bytes([i % 251]) * 1024
            stream = client.create_stream(client.conns[0])
            stream.send(payload)
            payloads.append(payload)

        driver.run_until(
            lambda: all(len(e) == len(p)
                        for e, p in zip(echoes, payloads)),
            timeout=60.0,
        )
        for echo, payload in zip(echoes, payloads):
            assert bytes(echo) == payload   # isolation: own bytes only

        for client in clients:
            client.close()
        driver.run_until(
            lambda: mux.session_count() == 0 and len(mux.table) == 0,
            timeout=60.0,
        )
        assert mux.table.accepts == mux.table.teardowns == n_clients
        assert mux.retired == n_clients
    finally:
        driver.close()


def test_tcp_info_reflects_kernel_state():
    driver = SocketDriver()
    try:
        client, _server, _session = _connect_pair(driver)
        info = client.conns[0].tcp_info()
        assert info["mss"] > 0
        assert info["cwnd_bytes"] > 0
        assert "retransmissions" in info
    finally:
        driver.close()
