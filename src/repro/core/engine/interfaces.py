"""The engine/driver boundary: the Transport and Driver contracts.

The TCPLS engine consumes a plain TCP bytestream plus ``tcp_info`` --
exactly the service model of the paper (Sec. 3).  These abstract
classes pin down everything the engine is allowed to ask of its
environment; a driver supplies concrete implementations.  Time is the
driver's ``clock``, a :class:`repro.net.Simulator` under every driver,
so all of the engine's timers sit on that one scheduler's heap.

Input events (driver -> engine)
-------------------------------

======================  ==============================================
engine entry point      meaning
======================  ==============================================
``bytes_received``      ordered bytes arrived on a connection
``conn_writable``       the connection drained; more may be written
``conn_failed``         the connection died (RST, timeout, error)
``conn_closed``         the peer closed cleanly (FIN)
``user_timeout_fired``  the armed user timeout elapsed
timer callbacks         armed earlier via ``clock.schedule``
======================  ==============================================

Effects (engine -> driver)
--------------------------

======================  ==============================================
interface call          meaning
======================  ==============================================
``Transport.send``      write bytes on connection N
``Transport.close``     graceful close / ``abort`` hard reset
``Transport.set_user_timeout``  arm the TCP user timeout
``clock.schedule``      arm a timer
``bus.emit``            publish an observability event
``emit(SessionEvent)``  deliver application data / lifecycle events
======================  ==============================================
"""

import abc
from collections import namedtuple


class Transport(abc.ABC):
    """One ordered, reliable bytestream (a TCP connection).

    Beyond the abstract methods, a transport exposes:

    - ``local`` / ``remote``: endpoint objects with ``.addr`` (which
      has ``.family``) and ``.port``;
    - ``user_timeout``: the currently armed user timeout in seconds
      (or ``None``);
    - ``on_established``: settable callback attribute fired once the
      connection completes its open.
    """

    #: the callbacks :meth:`set_callbacks` installs (``None`` until set)
    on_data = on_close = on_reset = None
    on_user_timeout = on_send_space = on_established = None
    user_timeout = None

    # -- data path ------------------------------------------------------

    @abc.abstractmethod
    def send(self, data):
        """Queue bytes for transmission (caller checked send_space)."""

    @abc.abstractmethod
    def recv(self, n=None):
        """Drain received bytes (empty bytes when nothing pending)."""

    @abc.abstractmethod
    def send_space(self):
        """Bytes the transport can accept right now without blocking."""

    @abc.abstractmethod
    def unsent_bytes(self):
        """Bytes accepted by :meth:`send` but not yet on the wire."""

    @abc.abstractmethod
    def readable_bytes(self):
        """Bytes a :meth:`recv` would return right now."""

    def pause_reading(self):
        """Stop delivering ``on_data`` (receive backpressure).  The
        default does nothing: a transport nobody drains is already
        paused -- its receive buffer fills, its window closes and the
        peer is throttled.  Kernel sockets drop read interest."""

    def resume_reading(self):
        """Undo :meth:`pause_reading`."""

    # -- lifecycle ------------------------------------------------------

    @abc.abstractmethod
    def is_open(self):
        """True while data can still be exchanged."""

    @abc.abstractmethod
    def close(self):
        """Graceful close (FIN after pending data)."""

    @abc.abstractmethod
    def abort(self):
        """Hard close (RST); pending data is discarded."""

    # -- callbacks ------------------------------------------------------

    def set_callbacks(self, on_data=None, on_close=None, on_reset=None,
                      on_user_timeout=None, on_send_space=None,
                      on_established=None):
        """Install event callbacks; ``None`` leaves a slot unchanged.
        Each callback is invoked with the transport as sole argument."""
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

    # -- introspection / services --------------------------------------

    @abc.abstractmethod
    def tcp_info(self):
        """``tcp_info``-style statistics dict (paper Sec. 3.3.3)."""

    def congestion_window(self):
        """Current congestion window in bytes (used to bound how much
        sealed data may sit in one connection's buffers)."""
        return 1 << 30

    def bytes_in_flight(self):
        """Sent-but-unacknowledged bytes (scheduler hint)."""
        return 0

    def set_user_timeout(self, seconds):
        """Arm the TCP user timeout (RFC 5482 semantics)."""
        self.user_timeout = seconds

    def attach_ebpf_congestion(self, bytecode, program_name="prog"):
        """Verify and attach a congestion-controller program; returns
        True on success.  Drivers without pluggable CC return False."""
        return False


class PlainAddress(namedtuple("PlainAddress", "value family",
                              defaults=(4,))):
    """An address value with the engine's ``family`` attribute, for
    drivers that have no :mod:`repro.net` address (sockets, stubs)."""

    __slots__ = ()

    def __repr__(self):
        return str(self.value)


class PlainEndpoint(namedtuple("PlainEndpoint", "addr port")):
    """(address, port) pair mirroring :class:`repro.net.Endpoint`."""

    __slots__ = ()

    @property
    def family(self):
        return self.addr.family

    def __repr__(self):
        return "%s:%d" % self


class Driver(abc.ABC):
    """Factory and event-loop facade binding engines to an environment.

    Attributes
    ----------
    clock:
        The driver's :class:`repro.net.Simulator`: ``now`` (seconds),
        ``schedule(delay, fn, *args)`` (a handle with ``cancel()``) and
        ``compactions``; drivers define the epoch (simulated time or
        monotonic wall time).
    bus:
        The clock's observability :class:`~repro.obs.bus.EventBus`.
    rng:
        The clock's ``random.Random``, used for handshake randomness.
    name:
        Stable host name (feeds server session-id derivation).
    tfo_enabled:
        Whether TCP Fast Open is available on this driver.
    """

    clock = None
    bus = None
    rng = None
    name = "driver"
    tfo_enabled = False

    @abc.abstractmethod
    def connect(self, local_addr, remote, cc=None, tfo_data=b""):
        """Open a :class:`Transport` from ``local_addr`` to the
        ``remote`` endpoint."""

    @abc.abstractmethod
    def listen(self, port, on_accept, cc=None):
        """Accept inbound transports on ``port``; returns a listener
        object exposing ``.port``.  ``on_accept(transport)`` runs for
        each new connection."""

    @abc.abstractmethod
    def endpoint(self, address, port):
        """Build an endpoint object for ``address``/``port``."""

    def tfo_cookie_for(self, server_addr):
        """Cached TCP Fast Open cookie for ``server_addr`` (b"" when
        none / unsupported)."""
        return b""

    def usable_local_addresses(self):
        """Local addresses with an operational interface (join-path
        candidates for the client's failover probing)."""
        return []

    def advertised_addresses(self):
        """Addresses a server advertises to clients (Sec. 3.3.2)."""
        return []


__all__ = ["Driver", "PlainAddress", "PlainEndpoint", "Transport"]
