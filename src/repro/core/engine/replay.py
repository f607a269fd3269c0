"""Deterministic record/replay of engine inputs, plus test doubles.

Because the engine is sans-I/O, a session's entire behaviour is a pure
function of its input-event sequence.  Setting ``engine.input_log`` to
an :class:`InputLog` captures that sequence ``(t, kind, conn_id,
data)``; :meth:`InputLog.replay_into` later drives a fresh engine (over
:class:`StubDriver` / :class:`ReplayTransport`) through the identical
inputs -- a post-mortem debugger for protocol bugs observed in any
driver.

Replay targets a *post-handshake* session: handshake transcripts
depend on handshake randomness, so :func:`bootstrap_ready_session`
recreates the ready state directly from raw key material via
:meth:`~repro.core.engine.session.TcplsEngine.install_raw_keys`.
"""

import random

from repro.core.engine.interfaces import (
    Driver,
    HeapClock,
    PlainAddress,
    PlainEndpoint,
    Transport,
)
from repro.core.engine.session import TcplsEngine
from repro.core.errors import DriverError
from repro.crypto.aead import get_cipher
from repro.obs.bus import EventBus


class InputLog:
    """An append-only log of the engine's external input events."""

    #: event kinds produced by the engine's input methods
    KINDS = ("bytes", "writable", "failed", "closed", "user_timeout")

    def __init__(self):
        self.entries = []

    def record(self, t, kind, conn_id, data=None):
        self.entries.append((t, kind, conn_id, data))

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def replay_into(self, engine):
        """Drive ``engine`` through the logged inputs.

        Connection ids are resolved against ``engine.conn_by_id``; the
        engine's clock (when it is a :class:`ManualClock`) is advanced
        to each entry's timestamp first so time-dependent logic (ACK
        rate limits, idle-transfer detection) behaves identically.
        Logging is suspended during replay so a log replayed into an
        engine that records its own inputs does not double up.
        """
        saved, engine.input_log = engine.input_log, None
        try:
            for t, kind, conn_id, data in self.entries:
                clock = engine.clock
                if isinstance(clock, ManualClock) and t > clock.now:
                    clock.run_until(t)
                conn = engine.conn_by_id(conn_id)
                if conn is None:
                    raise DriverError(
                        "replay: unknown connection id %r" % (conn_id,))
                if kind == "bytes":
                    engine.bytes_received(conn, data)
                elif kind == "writable":
                    engine.conn_writable(conn)
                elif kind == "failed":
                    engine.conn_failed(conn, data)
                elif kind == "closed":
                    engine.conn_closed(conn)
                elif kind == "user_timeout":
                    engine.user_timeout_fired(conn)
                else:
                    raise DriverError("replay: unknown kind %r" % (kind,))
        finally:
            engine.input_log = saved


class ManualClock(HeapClock):
    """A clock advanced explicitly by the test/replay harness."""

    def __init__(self, start=0.0):
        super().__init__()
        self.now = start

    def run_until(self, t):
        """Fire due timers in order, each at its deadline, then set
        ``now`` to ``t``."""
        deadline = self.next_deadline()
        while deadline is not None and deadline <= t:
            self.now = deadline
            self.fire_due()
            deadline = self.next_deadline()
        self.now = max(self.now, t)

    def advance(self, dt):
        self.run_until(self.now + dt)


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
        self.user_timeout = None
        self.on_data = None
        self.on_close = None
        self.on_reset = None
        self.on_user_timeout = None
        self.on_send_space = None
        self.on_established = None

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

    def set_callbacks(self, on_data=None, on_close=None, on_reset=None,
                      on_user_timeout=None, on_send_space=None,
                      on_established=None):
        if on_data is not None:
            self.on_data = on_data
        if on_close is not None:
            self.on_close = on_close
        if on_reset is not None:
            self.on_reset = on_reset
        if on_user_timeout is not None:
            self.on_user_timeout = on_user_timeout
        if on_send_space is not None:
            self.on_send_space = on_send_space
        if on_established is not None:
            self.on_established = on_established

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
    :class:`ReplayTransport`, time is a :class:`ManualClock`."""

    def __init__(self, seed=0, name="stub"):
        self.clock = ManualClock()
        self.bus = EventBus(self.clock)
        self.rng = random.Random(seed)
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


__all__ = [
    "InputLog",
    "ManualClock",
    "ReplayTransport",
    "StubDriver",
    "bootstrap_ready_session",
]
