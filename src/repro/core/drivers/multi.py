"""Multi-session serving: thousands of TCPLS sessions on one loop.

The paper evaluates one session at a time; a production server (the
ROADMAP's "millions of users") multiplexes many.  This module adds that
layer on top of the sans-I/O engine without touching the per-session
code:

- :class:`ConnectionTable` -- fd -> (session, transport) registry
  modeled on libconvert's ``_tcpls_lookup(sd)`` (SNIPPETS.md Secs. 2-3):
  every accepted transport gets an entry at accept time (state
  ``pending``), is re-pointed at its session when the handshake
  resolves it (a fresh session or an MPJOIN attach), and is dropped on
  teardown -- including transports that die *mid-handshake*, which the
  stock :class:`~repro.core.engine.server.TcplsServerEngine` never
  cleans up.
- :class:`MemoryBudget` -- bounded per-session receive memory with
  hysteresis.  When a session's buffered bytes
  (:meth:`~repro.core.engine.session.TcplsEngine.buffered_rx_bytes`)
  exceed the budget, its transports stop being read: kernel sockets
  drop read interest (``pause_reading``), simulated connections simply
  stop being drained -- either way the receive window closes and the
  *peer* is throttled, while every other session keeps progressing.
  Reads resume once the application drains below the low watermark.

:class:`MultiSessionServer` composes these around a server engine on
any driver (simulator or kernel sockets) by subscribing to the engine's
serving events (a new session; a connection accepted / attached /
aborted before attach) and to each session's ``CONN_FAILED`` and
``DRAIN``.  It only subscribes, so the application's ``on_*`` slots on
the engine and its sessions stay the application's.  Join credentials
live in the engine and nowhere else; retiring a session revokes them
there.
"""

from repro.core.engine.events import SessionEvent
from repro.core.engine.server import TcplsServerEngine

#: default per-session receive-memory budget (bytes)
DEFAULT_BUDGET = 256 * 1024
#: resume reads when buffered bytes drain below this fraction of budget
RESUME_FRACTION = 0.5

STATE_PENDING = "pending"     # accepted, handshake in flight
STATE_ATTACHED = "attached"   # wired to a session


class TableEntry:
    """One transport's slot in the connection table."""

    __slots__ = ("fd", "transport", "conn", "session", "state", "paused")

    def __init__(self, fd, transport):
        self.fd = fd
        self.transport = transport
        self.conn = None          # engine ConnectionState once known
        self.session = None       # session engine once attached
        self.state = STATE_PENDING
        self.paused = False

    def __repr__(self):
        return "TableEntry(fd=%d, %s)" % (self.fd, self.state)


class ConnectionTable:
    """fd -> (session, transport) registry (the ``_tcpls_lookup`` shape).

    Keys are kernel fds when the transport has a real ``fileno()``;
    simulated transports get synthetic negative fds so the same table
    serves both drivers.  ``by_session`` indexes a session's fds for
    O(degree) teardown and backpressure sweeps.
    """

    def __init__(self):
        self._entries = {}
        self.by_session = {}      # session obs_id -> set of fds
        self._synthetic_fd = 0
        # Lifetime counters (the mux gauges and tests read these).
        self.accepts = 0
        self.attaches = 0
        self.teardowns = 0
        self.peak = 0

    def __len__(self):
        return len(self._entries)

    def _fd_for(self, transport):
        fileno = getattr(transport, "fileno", None)
        if fileno is not None:
            fd = fileno()
            if isinstance(fd, int) and fd >= 0:
                return fd
        self._synthetic_fd -= 1
        return self._synthetic_fd

    def add_pending(self, transport):
        """Register a just-accepted transport; returns its entry."""
        fd = getattr(transport, "_mux_fd", None)
        if fd is None:
            fd = self._fd_for(transport)
            transport._mux_fd = fd
        if fd in self._entries:
            # Kernel fd reuse: the previous owner died without a
            # callback (abort); its slot is stale by definition.
            self.remove(fd)
        entry = TableEntry(fd, transport)
        self._entries[fd] = entry
        self.accepts += 1
        self.peak = max(self.peak, len(self._entries))
        return entry

    def attach(self, fd, session, conn):
        """Handshake resolved the transport to a session (new session's
        primary, or an MPJOIN attach to an existing one)."""
        entry = self._entries.get(fd)
        if entry is None:
            # Teardown raced the handshake completion; nothing to wire.
            return None
        entry.session = session
        entry.conn = conn
        entry.state = STATE_ATTACHED
        self.by_session.setdefault(session.obs_id, set()).add(fd)
        self.attaches += 1
        return entry

    def lookup(self, fd):
        """The ``_tcpls_lookup(sd)`` operation."""
        return self._entries.get(fd)

    def remove(self, fd):
        """Drop one transport's entry (close, reset, retire)."""
        entry = self._entries.pop(fd, None)
        if entry is None:
            return None
        if entry.session is not None:
            fds = self.by_session.get(entry.session.obs_id)
            if fds is not None:
                fds.discard(fd)
                if not fds:
                    del self.by_session[entry.session.obs_id]
        self.teardowns += 1
        return entry

    def entries_for(self, session):
        """All live entries attached to ``session``."""
        fds = self.by_session.get(session.obs_id, ())
        return [self._entries[fd] for fd in sorted(fds)
                if fd in self._entries]


class MemoryBudget:
    """Per-session receive-memory bound with pause/resume hysteresis."""

    def __init__(self, limit=DEFAULT_BUDGET):
        self.limit = limit
        self.low_watermark = int(limit * RESUME_FRACTION)

    def over(self, session):
        return session.buffered_rx_bytes() >= self.limit

    def drained(self, session):
        return session.buffered_rx_bytes() <= self.low_watermark


class MultiSessionServer:
    """One event loop, thousands of TCPLS sessions.

    Wraps a :class:`~repro.core.engine.server.TcplsServerEngine` on any
    driver with the connection table and per-session memory budgets.
    The per-session engine code is untouched; the mux only re-points
    transport callbacks after the engine wires them, which is exactly
    where libconvert interposes its ``_tcpls_lookup`` registry between
    the kernel and picotcpls.
    """

    def __init__(self, driver, port, psk, budget_bytes=DEFAULT_BUDGET,
                 auto_retire=False, **server_kwargs):
        self.driver = driver
        self.table = ConnectionTable()
        self.budget = MemoryBudget(budget_bytes)
        #: retire a session automatically once its last transport is
        #: gone (herd-scale churn would otherwise leak session state)
        self.auto_retire = auto_retire
        #: sessions retired (torn down) over the server's lifetime
        self.retired = 0
        #: lifetime backpressure pause / resume counts
        self.pauses = 0
        self.resumes = 0
        self.engine = TcplsServerEngine(driver, port, psk, **server_kwargs)
        self.engine.subscribe(SessionEvent.SESSION, self._watch_session)
        self.engine.subscribe(SessionEvent.ACCEPTED, self._track_accept)
        self.engine.subscribe(SessionEvent.ATTACHED, self._track_attach)
        self.engine.subscribe(SessionEvent.ABORTED, self._transport_aborted)
        self.port = self.engine.port

    # -- observability ---------------------------------------------------

    def _emit(self, name, data=None):
        bus = self.driver.bus
        if not bus.wants("mux"):
            return
        payload = {"table": len(self.table),
                   "sessions": len(self.engine.sessions)}
        if data:
            payload.update(data)
        bus.emit("mux", name, payload)

    # -- public surface --------------------------------------------------

    @property
    def on_session(self):
        """The application's handler for each new session (the
        engine's ``on_session`` slot)."""
        return self.engine.on_session

    @on_session.setter
    def on_session(self, fn):
        self.engine.on_session = fn

    @property
    def sessions(self):
        """Live sessions by session id (the engine's dict)."""
        return self.engine.sessions

    def session_count(self):
        return len(self.engine.sessions)

    def retire_session(self, session):
        """Tear one session down completely: close its transports,
        drop its table entries, revoke its outstanding join
        credentials, and forget it -- a later MPJOIN with one of its
        cookies/tokens must fail, not resurrect it."""
        for entry in self.table.entries_for(session):
            self.table.remove(entry.fd)
        revoked = self.engine.retire(session)
        self.retired += 1
        self._emit("session_retired", {
            "session": session.obs_id, "revoked_credentials": revoked,
        })

    def close(self):
        """Retire every session and stop listening."""
        for session in list(self.engine.sessions.values()):
            self.retire_session(session)
        for entry in list(self.table._entries.values()):
            if entry.transport.is_open():
                entry.transport.abort()
            self.table.remove(entry.fd)
        self.engine.listener.close()
        self._emit("server_closed", {})

    # -- accept / attach / teardown tracking -----------------------------

    def _track_accept(self, conn):
        tcp = conn.tcp
        entry = self.table.add_pending(tcp)
        # The stock engine leaves pre-handshake transports without
        # close/reset callbacks; a client that gives up mid-handshake
        # would leak its table entry forever.
        tcp.set_callbacks(
            on_close=lambda _c: self._pending_gone(entry),
            on_reset=lambda _c: self._pending_gone(entry),
        )
        self._emit("accept", {"fd": entry.fd})

    def _pending_gone(self, entry):
        if entry.state == STATE_PENDING:
            self.table.remove(entry.fd)
            self._emit("pending_teardown", {"fd": entry.fd})

    def _transport_aborted(self, conn):
        # A bad ClientHello (stale cookie, reused token, TLS garbage)
        # made the engine abort the transport -- which fires no
        # transport callback, so sweep the table entry here.
        fd = conn.tcp._mux_fd
        entry = self.table.lookup(fd)
        if entry is not None and entry.transport is conn.tcp:
            self.table.remove(fd)
            self._emit("pending_teardown", {"fd": fd, "reason": "abort"})

    def _watch_session(self, session):
        session.subscribe(SessionEvent.CONN_FAILED, self._conn_failed_hook)
        session.subscribe(SessionEvent.DRAIN, self._on_session_drain)

    def _conn_failed_hook(self, conn, reason):
        # A failover sync aborts the dead connection's transport
        # without any transport callback; sweep its table entry here.
        entry = self.table.lookup(conn.tcp._mux_fd)
        if entry is not None and entry.conn is conn:
            self._attached_gone(entry, "failed:%s" % reason)

    def _track_attach(self, conn):
        session = conn.session
        if conn.failed:
            return
        fd = conn.tcp._mux_fd
        entry = self.table.attach(fd, session, conn)
        if entry is None:
            return
        self._wrap_transport(entry)
        # Drop the TLS handshake machine (tens of KB per connection at
        # C1M scale).  Deferred one tick: the handshake often completes
        # inside tls.feed(), whose caller still touches conn.tls after.
        self.driver.clock.call_later(0.0, conn.release_handshake)
        self._emit("attach", {
            "fd": fd, "session": session.obs_id, "conn": conn.conn_id,
            "join": not conn.is_primary,
        })

    def _wrap_transport(self, entry):
        """Interpose budget + table bookkeeping between the transport
        callbacks the engine just wired and the session, mirroring how
        libconvert slots its registry between kernel and picotcpls."""
        conn, session, tcp = entry.conn, entry.session, entry.transport
        session_on_data = tcp.on_data
        session_on_close = tcp.on_close
        session_on_reset = tcp.on_reset

        def on_data(_c):
            if entry.paused:
                return
            if self.budget.over(session):
                self._pause_entry(entry)
                return
            session_on_data(_c)
            if self.budget.over(session):
                self._pause_entry(entry)

        def on_close(_c):
            if session_on_close is not None:
                session_on_close(_c)
            self._attached_gone(entry, "close")

        def on_reset(_c):
            if session_on_reset is not None:
                session_on_reset(_c)
            self._attached_gone(entry, "reset")

        tcp.set_callbacks(on_data=on_data, on_close=on_close,
                          on_reset=on_reset)

    def _attached_gone(self, entry, reason):
        if self.table.lookup(entry.fd) is entry:
            self.table.remove(entry.fd)
            self._emit("teardown", {"fd": entry.fd, "reason": reason})
            if self.auto_retire and entry.session is not None \
                    and entry.session.obs_id not in self.table.by_session:
                # Last transport of the session just went away.  Retire
                # on the next tick: we are deep inside the transport's
                # close/reset delivery path, and a join racing this
                # teardown may still attach before the tick fires (the
                # re-check below keeps that session alive).
                self.driver.clock.call_later(
                    0.0, self._auto_retire_check, entry.session)

    def _auto_retire_check(self, session):
        if session.session_id not in self.engine.sessions:
            return
        if session.obs_id in self.table.by_session:
            return
        self.retire_session(session)

    # -- backpressure -----------------------------------------------------

    def _pause_entry(self, entry):
        if entry.paused:
            return
        entry.paused = True
        self.pauses += 1
        # On simulator transports this does nothing and the pause is
        # purely "stop draining": bytes pile up in the transport's
        # receive buffer, its advertised window closes, and TCP
        # throttles the peer -- the same mechanism a kernel socket
        # gets from dropping read interest.
        entry.transport.pause_reading()
        self._emit("pause", {
            "fd": entry.fd, "session": entry.session.obs_id,
            "buffered": entry.session.buffered_rx_bytes(),
        })

    def _on_session_drain(self, session):
        if not self.budget.drained(session):
            return
        for entry in self.table.entries_for(session):
            if entry.paused:
                self._resume_entry(entry)

    def _resume_entry(self, entry):
        entry.paused = False
        self.resumes += 1
        entry.transport.resume_reading()
        self._emit("resume", {
            "fd": entry.fd, "session": entry.session.obs_id,
        })
        # Process bytes that arrived while paused.  Deferred to the
        # next clock tick: drain notifications fire from inside
        # recv(), often deep inside this very session's delivery path.
        self.driver.clock.call_later(0.0, self._drain_backlog, entry)

    def _drain_backlog(self, entry):
        if entry.paused or entry.conn is None:
            return
        if self.table.lookup(entry.fd) is not entry:
            return
        if entry.transport.is_open() or entry.transport.readable_bytes():
            # Through the wrapped on_data, so the backlog read is
            # budget-checked and re-pauses if it overshoots again.
            on_data = entry.transport.on_data
            if on_data is not None:
                on_data(entry.transport)

    def paused_fds(self):
        """fds currently under backpressure (tests / gauges)."""
        return sorted(
            entry.fd for entry in self.table._entries.values()
            if entry.paused
        )


__all__ = [
    "ConnectionTable",
    "MemoryBudget",
    "MultiSessionServer",
    "TableEntry",
]
