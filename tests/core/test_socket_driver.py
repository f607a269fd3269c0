"""SocketDriver integration: the same engine over real OS loopback.

The acceptance test for the sans-I/O split: a multi-stream transfer
with record-level encryption runs over actual kernel TCP sockets,
driven by the identical :mod:`repro.core.engine` code path the
simulator tests exercise.  Marked ``smoke`` (real sockets + wall-clock
time; excluded from environments without loopback networking).
"""

import time

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
    build their lane tables (H ... H^64), and no more than their byte
    tables besides."""
    from functools import cached_property

    from repro.crypto import gcm

    builds = []
    build = gcm._build_ghash_tables
    monkeypatch.setattr(gcm, "_build_ghash_tables",
                        lambda h: builds.append(h) or build(h))
    power_tables = gcm.Ghash._power_tables.func
    counted = cached_property(
        lambda ghash: builds.append(ghash._h) or power_tables(ghash))
    counted.__set_name__(gcm.Ghash, "_power_tables")
    monkeypatch.setattr(gcm.Ghash, "_power_tables", counted)
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
    one :class:`TcplsServerEngine` on a single selectors loop -- every
    session isolated, every byte echoed, no transport left live after
    the close wave.  psk_ke handshakes keep it CI-safe."""
    n_clients = 100
    driver = SocketDriver(backlog=256)
    try:
        server = TcplsServerEngine(driver, 0, PSK, budget_bytes=256 * 1024,
                                   auto_retire=True,
                                   cipher_names=("chacha20poly1305",))

        def serve(session):
            session.on_stream_data = lambda s: s.send(s.recv())

        server.on_session = serve

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
            client.connect(None, driver.endpoint("127.0.0.1", server.port))
            clients.append(client)
            echoes.append(echo)

        driver.run_until(lambda: all(c.ready for c in clients),
                         timeout=60.0)
        assert len(server.sessions) == n_clients
        assert len(server.live) == n_clients

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
            lambda: not server.sessions and not server.live,
            timeout=60.0,
        )
        stats = server.stats
        assert stats["accepts"] == stats["teardowns"] == n_clients
        assert stats["retired"] == n_clients
    finally:
        driver.close()


def test_a_timer_fires_on_the_wall_clock_within_one_step():
    """A timer armed on the driver's clock fires no sooner than its
    delay of wall time, in the first loop step that begins after its
    deadline: the select waits for the timer, not for its timeout."""
    start = time.monotonic()
    driver = SocketDriver()
    try:
        fired = []
        driver.clock.schedule(0.05, lambda: fired.append(time.monotonic()))
        armed = time.monotonic()
        began = []
        while not fired:
            began.append(time.monotonic())
            driver.step(timeout=1.0)
        assert fired[0] - start >= 0.05
        assert all(t < armed + 0.05 for t in began[:-1])
        assert fired[0] - armed < 0.5
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


#: traced bytes an upload may peak at, whatever its size: the send path
#: queues the application's bytes by reference and seals at most a
#: budget of records ahead, and the receive path holds a read's chunk
#: and the stream buffer a reader drains
UPLOAD_PEAK_BOUND = 2 << 20


@pytest.mark.parametrize("size", [8 << 20, 16 << 20])
def test_upload_memory_does_not_grow_with_its_size(size):
    """A null-tag upload over loopback, the payload allocated before
    tracing starts: the traced peak stays under one bound for 8 MiB and
    16 MiB alike."""
    import hashlib
    import random
    import tracemalloc

    payload = random.Random(size).randbytes(size)
    expected = hashlib.sha256(payload).digest()
    driver = SocketDriver()
    tracemalloc.start()
    try:
        client, _server, session = _connect_pair(driver, cipher="null-tag")
        received = hashlib.sha256()
        count = [0]

        def on_stream_data(stream):
            data = stream.recv()
            received.update(data)
            count[0] += len(data)

        session.on_stream_data = on_stream_data
        stream = client.create_stream(client.conns[0])
        stream.send(payload)
        stream.close()
        driver.run_until(lambda: count[0] >= size, timeout=60.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        driver.close()
    assert received.digest() == expected
    assert peak < UPLOAD_PEAK_BOUND, "traced peak %.1f MB" % (peak / 1e6)
