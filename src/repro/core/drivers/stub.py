"""The replay harness's driver: no I/O, and time only when asked.

:class:`StubDriver` hands the engine :class:`ReplayTransport` doubles,
which capture what the engine writes and take injected reads, and a
:class:`~repro.net.Simulator` clock that tests and
:meth:`~repro.core.engine.replay.InputLog.replay_into` advance with
``run(until=t)``.

Replay targets a *post-handshake* session: handshake transcripts
depend on handshake randomness, so :func:`bootstrap_ready_session`
recreates the ready state directly from raw key material via
:meth:`~repro.core.engine.session.TcplsEngine.install_raw_keys`.
"""

from repro.core.engine.interfaces import (
    Driver,
    PlainAddress,
    PlainEndpoint,
    Transport,
)
from repro.core.engine.session import TcplsEngine
from repro.crypto.aead import get_cipher
from repro.net.simulator import Simulator


class ReplayTransport(Transport):
    """A scripted transport: captures engine writes, accepts injected
    reads.  The replay harness's stand-in for a real connection."""

    def __init__(self, local=None, remote=None, capacity=1 << 30):
        self.local = local or PlainEndpoint(PlainAddress("stub-local"), 0)
        self.remote = remote or PlainEndpoint(PlainAddress("stub-remote"), 0)
        self.capacity = capacity
        self.sent = bytearray()          # everything the engine wrote
        self._recv_buffer = bytearray()  # injected, awaiting recv()
        self._open = True
        self.closed = False
        self.aborted = False

    # -- data path ------------------------------------------------------

    def send(self, data):
        self.sent += data
        return len(data)

    def recv(self, n=None):
        if n is None or n >= len(self._recv_buffer):
            data = bytes(self._recv_buffer)
            self._recv_buffer.clear()
            return data
        data = bytes(self._recv_buffer[:n])
        del self._recv_buffer[:n]
        return data

    def send_space(self):
        return self.capacity if self._open else 0

    def unsent_bytes(self):
        return 0

    def readable_bytes(self):
        return len(self._recv_buffer)

    # -- harness helpers ------------------------------------------------

    def inject(self, data):
        """Buffer inbound bytes and fire ``on_data`` (as a driver would)."""
        self._recv_buffer += data
        if self.on_data is not None:
            self.on_data(self)

    def take_sent(self):
        """Drain and return everything the engine has written so far."""
        data = bytes(self.sent)
        self.sent.clear()
        return data

    # -- lifecycle ------------------------------------------------------

    def is_open(self):
        return self._open

    def close(self):
        self._open = False
        self.closed = True

    def abort(self):
        self._open = False
        self.aborted = True

    def tcp_info(self):
        return {
            "state": "ESTABLISHED" if self._open else "CLOSED",
            "mss": 1460, "srtt": None, "rttvar": None, "min_rtt": None,
            "rto": 1.0, "bytes_in_flight": 0, "peer_window": self.capacity,
            "bytes_sent": len(self.sent), "bytes_acked": len(self.sent),
            "bytes_received": 0, "segments_sent": 0, "segments_received": 0,
            "retransmissions": 0, "cwnd_bytes": self.capacity,
            "ssthresh_bytes": None,
        }


class StubDriver(Driver):
    """A driver with no I/O at all: every transport is a
    :class:`ReplayTransport`, and time is a :class:`Simulator` that
    nothing advances but its owner (``clock.run(until=t)``)."""

    def __init__(self, seed=0, name="stub"):
        self.clock = Simulator(seed)
        self.bus = self.clock.bus
        self.rng = self.clock.rng
        self.name = name
        self.tfo_enabled = False
        self.transports = []

    def connect(self, local_addr, remote, cc=None, tfo_data=b""):
        transport = ReplayTransport(
            local=PlainEndpoint(local_addr, 49152 + len(self.transports)),
            remote=remote,
        )
        self.transports.append(transport)
        return transport

    def listen(self, port, on_accept, cc=None):
        listener = type("StubListener", (), {})()
        listener.port = port or 443
        listener.on_accept = on_accept
        return listener

    def endpoint(self, address, port):
        return PlainEndpoint(address, port)


def bootstrap_ready_session(driver=None, is_client=True,
                            cipher_name="null-tag",
                            key=b"\x11" * 32, iv=b"\x22" * 12,
                            peer_key=b"\x33" * 32, peer_iv=b"\x44" * 12,
                            **session_kwargs):
    """Build a ready post-handshake engine over a stub transport.

    ``key``/``iv`` protect the client-to-server direction and
    ``peer_key``/``peer_iv`` the reverse, so two sessions bootstrapped
    with the same material but opposite ``is_client`` interoperate
    byte-for-byte -- feed one's transport writes to the other's
    :meth:`~TcplsEngine.bytes_received`.

    Returns ``(engine, conn)``; ``conn.tcp`` is the
    :class:`ReplayTransport` carrying the primary connection.
    """
    driver = driver or StubDriver()
    engine = TcplsEngine(driver, is_client=is_client, **session_kwargs)
    transport = driver.connect(
        PlainAddress("client" if is_client else "server"),
        PlainEndpoint(PlainAddress("server" if is_client else "client"),
                      443),
    )
    cipher_cls = get_cipher(cipher_name)
    if is_client:
        engine.install_raw_keys(cipher_cls, key, peer_key, iv, peer_iv)
    else:
        engine.install_raw_keys(cipher_cls, peer_key, key, peer_iv, iv)
    engine.tcpls_enabled = True
    conn = engine._open_conn(transport)
    engine.attach_conn(conn)
    return engine, conn


__all__ = ["ReplayTransport", "StubDriver", "bootstrap_ready_session"]
