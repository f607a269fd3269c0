"""Socket driver: runs the TCPLS engine over real kernel TCP.

A :class:`SocketDriver` owns a :mod:`selectors` event loop, a monotonic
clock with a timer heap, and non-blocking :class:`SocketTransport`
objects satisfying the engine's Transport contract.  The engine code
that runs here is byte-for-byte the same as under the simulator driver
-- only the environment differs, which is the point of the sans-I/O
split (and what lets ``examples/loopback_sockets.py`` move TCPLS
records over OS loopback).

``tcp_info`` is populated from the Linux ``TCP_INFO`` socket option
when available and degrades to conservative defaults elsewhere.
"""

import errno
import random
import selectors
import socket
import struct
import time

from repro.core.engine.interfaces import (
    Driver,
    HeapClock,
    PlainAddress,
    PlainEndpoint,
    Transport,
)
from repro.core.errors import DriverError
from repro.obs.bus import EventBus

#: Linux ``struct tcp_info`` prefix: 8 bytes of u8 fields, 24 u32
#: counters, 4 u64 rate/byte counters, 2 u32 segment counters.
_TCP_INFO_FMT = "8B24I4Q2I"
_TCP_INFO_SIZE = struct.calcsize(_TCP_INFO_FMT)
_TCP_USER_TIMEOUT = getattr(socket, "TCP_USER_TIMEOUT", 18)


def _endpoint_from_sockname(sockname, family):
    host, port = sockname[0], sockname[1]
    return PlainEndpoint(
        PlainAddress(host, 6 if family == socket.AF_INET6 else 4), port
    )


class SocketClock(HeapClock):
    """Monotonic real time (epoch at driver creation) + timer heap."""

    def __init__(self):
        super().__init__()
        self._epoch = time.monotonic()

    @property
    def now(self):
        return time.monotonic() - self._epoch


class SocketTransport(Transport):
    """One non-blocking TCP socket driven by the selector loop."""

    #: engine-visible send buffer bound (send_space = cap - queued)
    SEND_BUFFER_CAP = 1 << 20
    _RECV_CHUNK = 1 << 16

    def __init__(self, driver, sock, remote, connecting=False):
        self.driver = driver
        self.sock = sock
        self.remote = remote
        self.local = _endpoint_from_sockname(sock.getsockname(),
                                             sock.family)
        self._outbuf = bytearray()
        self._recv_buffer = bytearray()
        self._connecting = connecting
        self._open = True
        self._close_pending = False
        self._paused = False
        self.user_timeout = None
        self.on_established = None
        self.on_data = None
        self.on_close = None
        self.on_reset = None
        self.on_user_timeout = None
        self.on_send_space = None
        sock.setblocking(False)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        driver._register(self)

    # -- data path ------------------------------------------------------

    def send(self, data):
        if not self._open:
            raise DriverError("send on closed transport %r" % (self,))
        data = bytes(data)
        self._outbuf += data
        self._flush()
        self.driver._update_interest(self)
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
        if not self._open:
            return 0
        return max(self.SEND_BUFFER_CAP - len(self._outbuf), 0)

    def unsent_bytes(self):
        return len(self._outbuf)

    def readable_bytes(self):
        return len(self._recv_buffer)

    def fileno(self):
        """Kernel fd (the multi-session connection-table key)."""
        try:
            return self.sock.fileno()
        except (OSError, AttributeError):
            return -1

    def pause_reading(self):
        """Backpressure: drop read interest so the kernel's receive
        buffer fills and TCP's window closes toward the peer."""
        if not self._paused:
            self._paused = True
            if self._open:
                self.driver._update_interest(self)

    def resume_reading(self):
        """Re-arm read interest after the session drained its buffers."""
        if self._paused:
            self._paused = False
            if self._open:
                self.driver._update_interest(self)

    # -- lifecycle ------------------------------------------------------

    def is_open(self):
        return self._open

    def close(self):
        if not self._open:
            return
        if self._outbuf:
            self._close_pending = True
            return
        self._teardown(graceful=True)

    def abort(self):
        if not self._open and self.sock is None:
            return
        try:
            self.sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER,
                struct.pack("ii", 1, 0),
            )
        except OSError:
            pass
        self._teardown(graceful=False)

    def _teardown(self, graceful):
        self._open = False
        self.driver._unregister(self)
        try:
            if graceful:
                try:
                    self.sock.shutdown(socket.SHUT_WR)
                except OSError:
                    pass
            self.sock.close()
        except OSError:
            pass

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

    # -- kernel services ------------------------------------------------

    def set_user_timeout(self, seconds):
        self.user_timeout = seconds
        try:
            self.sock.setsockopt(socket.IPPROTO_TCP, _TCP_USER_TIMEOUT,
                                 int(seconds * 1000))
        except OSError:
            pass

    def congestion_window(self):
        info = self.tcp_info()
        return info.get("cwnd_bytes") or self.SEND_BUFFER_CAP

    def bytes_in_flight(self):
        return self.tcp_info().get("bytes_in_flight") or 0

    def tcp_info(self):
        info = {
            "state": "ESTABLISHED" if self._open else "CLOSED",
            "mss": 1460, "srtt": None, "rttvar": None, "min_rtt": None,
            "rto": 1.0, "bytes_in_flight": 0, "peer_window": 65535,
            "bytes_sent": 0, "bytes_acked": 0, "bytes_received": 0,
            "segments_sent": 0, "segments_received": 0,
            "retransmissions": 0,
            "cwnd_bytes": self.SEND_BUFFER_CAP, "ssthresh_bytes": None,
        }
        if not self._open:
            return info
        try:
            raw = self.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_INFO,
                                       256)
        except (OSError, AttributeError):
            return info
        if len(raw) < _TCP_INFO_SIZE:
            return info
        fields = struct.unpack_from(_TCP_INFO_FMT, raw)
        (rto, _ato, snd_mss, _rcv_mss, unacked, _sacked, _lost, _retrans,
         _fackets, _lds, _las, _ldr, _lar, _pmtu, _rcv_ssthresh, rtt,
         rttvar, snd_ssthresh, snd_cwnd, _advmss, _reordering, _rcv_rtt,
         _rcv_space, total_retrans) = fields[8:32]
        _pacing, _max_pacing, bytes_acked, bytes_received = fields[32:36]
        segs_out, segs_in = fields[36:38]
        mss = snd_mss or 1460
        info.update({
            "mss": mss,
            "srtt": rtt / 1e6 if rtt else None,
            "rttvar": rttvar / 1e6 if rttvar else None,
            "rto": rto / 1e6 if rto else 1.0,
            "bytes_in_flight": unacked * mss,
            "bytes_acked": bytes_acked,
            "bytes_received": bytes_received,
            "segments_sent": segs_out,
            "segments_received": segs_in,
            "retransmissions": total_retrans,
            "cwnd_bytes": snd_cwnd * mss,
            "ssthresh_bytes": (None if snd_ssthresh >= 0x7FFFFFFF
                               else snd_ssthresh * mss),
        })
        return info

    # -- selector plumbing ----------------------------------------------

    def _wants_write(self):
        return self._open and (self._connecting or bool(self._outbuf)
                               or self._close_pending)

    def _flush(self):
        while self._outbuf and self._open and not self._connecting:
            try:
                sent = self.sock.send(bytes(self._outbuf[:self._RECV_CHUNK]))
            except BlockingIOError:
                return
            except OSError as exc:
                self._fail(exc)
                return
            if sent <= 0:
                return
            del self._outbuf[:sent]
        if not self._outbuf and self._close_pending:
            self._close_pending = False
            self._teardown(graceful=True)

    def _fail(self, exc):
        if not self._open:
            return
        self._teardown(graceful=False)
        if exc.errno in (errno.ETIMEDOUT,) and \
                self.on_user_timeout is not None:
            self.on_user_timeout(self)
        elif self.on_reset is not None:
            self.on_reset(self)

    def _handle_events(self, mask):
        if mask & selectors.EVENT_WRITE:
            if self._connecting:
                err = self.sock.getsockopt(socket.SOL_SOCKET,
                                           socket.SO_ERROR)
                if err:
                    self._fail(OSError(err, "connect failed"))
                    return
                self._connecting = False
                self.local = _endpoint_from_sockname(
                    self.sock.getsockname(), self.sock.family)
                if self.on_established is not None:
                    self.on_established(self)
                if not self._open:
                    return
            had_backlog = bool(self._outbuf)
            self._flush()
            if not self._open:
                return
            if had_backlog and not self._outbuf and \
                    self.on_send_space is not None:
                self.on_send_space(self)
            if not self._open:
                return
        if mask & selectors.EVENT_READ and not self._paused:
            self._handle_read()
        if self._open:
            self.driver._update_interest(self)

    def _handle_read(self):
        got_data = False
        while self._open:
            try:
                chunk = self.sock.recv(self._RECV_CHUNK)
            except BlockingIOError:
                break
            except OSError as exc:
                self._fail(exc)
                return
            if chunk == b"":
                if got_data and self.on_data is not None:
                    self.on_data(self)
                self._open = False
                self.driver._unregister(self)
                try:
                    self.sock.close()
                except OSError:
                    pass
                if self.on_close is not None:
                    self.on_close(self)
                return
            self._recv_buffer += chunk
            got_data = True
        if got_data and self.on_data is not None:
            self.on_data(self)

    def __repr__(self):
        return "SocketTransport(%s->%s)" % (self.local, self.remote)


class _SocketListener:
    """A listening socket; accepts become :class:`SocketTransport`."""

    def __init__(self, driver, sock, on_accept):
        self.driver = driver
        self.sock = sock
        self.on_accept = on_accept
        self.port = sock.getsockname()[1]
        self.accepted = 0
        sock.setblocking(False)

    def _handle_events(self, mask):
        while True:
            try:
                client, addr = self.sock.accept()
            except BlockingIOError:
                return
            except OSError:
                return
            remote = _endpoint_from_sockname(addr, client.family)
            transport = SocketTransport(self.driver, client, remote)
            self.accepted += 1
            self.on_accept(transport)

    def close(self):
        self.driver._unregister_listener(self)
        try:
            self.sock.close()
        except OSError:
            pass


class SocketDriver(Driver):
    """Selector event loop binding engines to kernel TCP sockets."""

    def __init__(self, name="sockets", host="127.0.0.1", seed=None,
                 bus=None, reuse_port=False, backlog=128):
        self.name = name
        self.host = host
        self.clock = SocketClock()
        self.bus = bus if bus is not None else EventBus(self.clock)
        self.rng = random.Random(seed)
        self.tfo_enabled = False
        #: bind listeners with SO_REUSEPORT so several shard processes
        #: can share one port (the C1M listener-per-shard layout).
        self.reuse_port = reuse_port
        self.backlog = backlog
        self.selector = selectors.DefaultSelector()
        self.transports = []
        self.listeners = []

    # -- Driver interface -----------------------------------------------

    def connect(self, local_addr, remote, cc=None, tfo_data=b""):
        if cc is not None or tfo_data:
            raise DriverError(
                "SocketDriver does not support per-connection cc/TFO")
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        if local_addr is not None:
            bind_host = getattr(local_addr, "value", local_addr)
            sock.bind((str(bind_host), 0))
        try:
            sock.connect((str(getattr(remote.addr, "value", remote.addr)),
                          remote.port))
        except BlockingIOError:
            pass
        return SocketTransport(self, sock, remote, connecting=True)

    def listen(self, port, on_accept, cc=None):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if self.reuse_port and hasattr(socket, "SO_REUSEPORT"):
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((self.host, port))
        sock.listen(self.backlog)
        listener = _SocketListener(self, sock, on_accept)
        self.listeners.append(listener)
        self.selector.register(sock, selectors.EVENT_READ, listener)
        return listener

    def endpoint(self, address, port):
        if isinstance(address, PlainAddress):
            return PlainEndpoint(address, port)
        return PlainEndpoint(PlainAddress(str(address)), port)

    def usable_local_addresses(self):
        return [PlainAddress(self.host)]

    # -- event loop -----------------------------------------------------

    def step(self, timeout=0.05):
        """One select + timer pass; returns number of I/O events."""
        wait = timeout
        deadline = self.clock.next_deadline()
        if deadline is not None:
            wait = min(wait, max(deadline - self.clock.now, 0.0))
        if self.selector.get_map():
            events = self.selector.select(wait)
        else:
            time.sleep(wait)
            events = []
        for key, mask in events:
            key.data._handle_events(mask)
        self.clock.fire_due()
        return len(events)

    def run_until(self, predicate, timeout=10.0):
        """Spin the loop until ``predicate()`` is true.

        Raises :class:`DriverError` on timeout so hangs surface as
        errors instead of silent stalls.
        """
        deadline = self.clock.now + timeout
        while not predicate():
            if self.clock.now >= deadline:
                raise DriverError(
                    "run_until timed out after %.1fs" % timeout)
            self.step()
        return True

    def run_for(self, duration):
        deadline = self.clock.now + duration
        while self.clock.now < deadline:
            self.step(timeout=min(0.05, deadline - self.clock.now))

    def close(self):
        """Tear down every transport and listener and the selector."""
        for transport in list(self.transports):
            transport.abort()
        for listener in list(self.listeners):
            listener.close()
        self.selector.close()

    # -- transport plumbing ---------------------------------------------

    def _register(self, transport):
        self.transports.append(transport)
        mask = selectors.EVENT_READ
        if transport._wants_write():
            mask |= selectors.EVENT_WRITE
        self.selector.register(transport.sock, mask, transport)

    def _update_interest(self, transport):
        if not transport._open:
            return
        mask = 0
        if not transport._paused:
            mask |= selectors.EVENT_READ
        if transport._wants_write():
            mask |= selectors.EVENT_WRITE
        if mask == 0:
            # Paused with nothing to write: deregister entirely (the
            # selector API has no zero-interest registration).
            try:
                self.selector.unregister(transport.sock)
            except (KeyError, ValueError, OSError):
                pass
            return
        try:
            self.selector.modify(transport.sock, mask, transport)
        except KeyError:
            try:
                self.selector.register(transport.sock, mask, transport)
            except (ValueError, OSError):
                pass

    def _unregister(self, transport):
        try:
            self.selector.unregister(transport.sock)
        except (KeyError, ValueError, OSError):
            pass
        if transport in self.transports:
            self.transports.remove(transport)

    def _unregister_listener(self, listener):
        try:
            self.selector.unregister(listener.sock)
        except (KeyError, ValueError, OSError):
            pass
        if listener in self.listeners:
            self.listeners.remove(listener)


__all__ = ["SocketClock", "SocketDriver", "SocketTransport"]
