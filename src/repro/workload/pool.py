"""Connection pooling for the web-workload layer.

Browsers do not open one connection per object: they keep a small pool
per host, reuse idle connections, and only open new ones while a
per-host limit allows.  Which transfer lands on which pooled connection
is *the* decision that differentiates scheduling policies at page
granularity, so the pool exposes its state as a read-only snapshot
(:class:`PoolView` of :class:`Candidate` entries) that
:meth:`~repro.core.engine.policy.Policy.assign_transfer` chooses from,
and keeps honest books -- reuse vs. new vs. shared placements, idle
expiries -- so experiments can report how a policy actually used the
pool.

The pool is transport-agnostic: a ``factory(host)`` callable produces
*handles* (a TCPLS session path, a QUIC connection, an MPTCP flow --
see :mod:`repro.workload.fetchers`).  Handles may optionally expose
``srtt()`` / ``cwnd()`` / ``backlog_bytes()`` for policies that model
the transport, and ``close()`` for idle expiry.
"""

from repro.obs.events import CAT_WORKLOAD

__all__ = ["Candidate", "ConnectionPool", "PoolView", "PooledConnection"]

#: cold initial window modelled for connections with no measured cwnd
_DEFAULT_CWND = 10 * 1500.0


class PooledConnection:
    """One live pooled connection and its accounting state."""

    __slots__ = ("host", "handle", "index", "capacity", "active",
                 "opened_at", "last_idle", "transfers_carried")

    def __init__(self, host, handle, index, capacity, opened_at):
        self.host = host
        self.handle = handle
        self.index = index
        #: concurrent transfers this connection can carry (1 for a
        #: serial HTTP/1.1-style flow, >1 for multiplexed transports)
        self.capacity = capacity
        self.active = 0
        self.opened_at = opened_at
        self.last_idle = opened_at
        self.transfers_carried = 0

    def _stat(self, name, default):
        fn = getattr(self.handle, name, None)
        if fn is None:
            return default
        value = fn()
        return default if value is None else value

    def srtt(self):
        return self._stat("srtt", float("inf"))

    def cwnd(self):
        return self._stat("cwnd", _DEFAULT_CWND)

    def backlog_bytes(self):
        return self._stat("backlog_bytes", 0.0)

    def __repr__(self):
        return "PooledConnection(%s#%d, active=%d/%d)" % (
            self.host, self.index, self.active, self.capacity
        )


class Candidate:
    """One assignable placement, as shown to a policy.

    ``kind`` says what accepting this candidate means:

    - ``"reuse"`` -- an idle pooled connection picks the transfer up;
    - ``"share"`` -- a busy multiplexed connection carries it alongside
      its current transfers;
    - ``"new"`` -- the pool opens a fresh connection (``entry`` is
      None until checkout).
    """

    __slots__ = ("kind", "host", "index", "active", "entry")

    def __init__(self, kind, host, index, active, entry=None):
        self.kind = kind
        self.host = host
        self.index = index
        self.active = active
        self.entry = entry

    def srtt(self):
        return self.entry.srtt() if self.entry is not None else float("inf")

    def cwnd(self):
        return self.entry.cwnd() if self.entry is not None else _DEFAULT_CWND

    def backlog_bytes(self):
        return self.entry.backlog_bytes() if self.entry is not None else 0.0

    def __repr__(self):
        return "Candidate(%s %s#%d, active=%d)" % (
            self.kind, self.host, self.index, self.active
        )


class PoolView:
    """Read-only snapshot of one host's placements at decision time."""

    __slots__ = ("host", "_candidates")

    def __init__(self, host, candidates):
        self.host = host
        self._candidates = candidates

    def candidates(self):
        return list(self._candidates)

    def typical_srtt(self):
        """Median measured SRTT across this host's open connections
        (None when nothing has been measured yet) -- what a policy
        should assume a *new* connection will see."""
        measured = sorted(
            c.srtt() for c in self._candidates
            if c.entry is not None and c.srtt() != float("inf")
        )
        if not measured:
            return None
        return measured[len(measured) // 2]

    def __repr__(self):
        return "PoolView(%s, %d candidates)" % (
            self.host, len(self._candidates)
        )


class ConnectionPool:
    """Per-host connection pool with idle-timeout and reuse accounting.

    Parameters
    ----------
    clock:
        Time source with a ``now`` attribute (the simulator); drives
        idle-expiry and the opened/idle timestamps.
    factory:
        ``factory(host) -> handle``; invoked on checkout of a ``"new"``
        candidate.
    max_per_host:
        Connection limit per host (browser-style, default 6).
    capacity:
        Concurrent transfers per connection (1 = serial; pass >1 for
        multiplexed transports so ``"share"`` candidates appear).
    idle_timeout:
        Seconds a connection may sit idle before :meth:`sweep` closes
        it.
    bus:
        Optional obs :class:`~repro.obs.bus.EventBus`; pool decisions
        are emitted in the ``workload`` category.
    """

    def __init__(self, clock, factory, max_per_host=6, capacity=1,
                 idle_timeout=30.0, bus=None):
        self.clock = clock
        self.factory = factory
        self.max_per_host = max_per_host
        self.capacity = capacity
        self.idle_timeout = idle_timeout
        self.bus = bus
        self._entries = {}
        self._next_index = {}
        self._capacity_listeners = []
        #: accounting: how placements were satisfied
        self.reused = 0
        self.opened = 0
        self.shared = 0
        self.expired = 0

    # -- snapshots ---------------------------------------------------------

    def entries(self, host):
        return list(self._entries.get(host, ()))

    def view(self, host):
        """Build the candidate snapshot a policy chooses from."""
        candidates = []
        entries = self._entries.get(host, ())
        for entry in entries:
            if entry.active == 0:
                candidates.append(Candidate(
                    "reuse", host, entry.index, 0, entry))
            elif entry.active < entry.capacity:
                candidates.append(Candidate(
                    "share", host, entry.index, entry.active, entry))
        if len(entries) < self.max_per_host:
            candidates.append(Candidate(
                "new", host, self._next_index.get(host, 0), 0, None))
        return PoolView(host, candidates)

    # -- placement ---------------------------------------------------------

    def checkout(self, candidate):
        """Commit a policy's candidate choice; returns the
        :class:`PooledConnection` now carrying the transfer."""
        now = self.clock.now
        if candidate.kind == "new":
            host = candidate.host
            if len(self._entries.get(host, ())) >= self.max_per_host:
                raise ValueError("per-host limit reached for %r" % (host,))
            handle = self.factory(host)
            index = self._next_index.get(host, 0)
            self._next_index[host] = index + 1
            entry = PooledConnection(host, handle, index, self.capacity, now)
            self._entries.setdefault(host, []).append(entry)
            self.opened += 1
            self._emit("pool_open", host, entry)
        else:
            entry = candidate.entry
            if entry is None or entry not in self._entries.get(entry.host, ()):
                raise ValueError("stale pool candidate: %r" % (candidate,))
            if entry.active >= entry.capacity:
                raise ValueError("connection full: %r" % (entry,))
            if candidate.kind == "reuse":
                self.reused += 1
                self._emit("pool_reuse", entry.host, entry)
            else:
                self.shared += 1
                self._emit("pool_share", entry.host, entry)
        entry.active += 1
        entry.transfers_carried += 1
        return entry

    def add_capacity_listener(self, callback):
        """Register a zero-argument callback fired whenever a release
        frees capacity -- transfer managers parked on a saturated pool
        use it to resume (several managers may share one pool)."""
        self._capacity_listeners.append(callback)

    def release(self, entry):
        """A transfer finished on ``entry``; idle time starts now."""
        if entry.active <= 0:
            raise ValueError("release of idle connection: %r" % (entry,))
        entry.active -= 1
        if entry.active == 0:
            entry.last_idle = self.clock.now
        for callback in list(self._capacity_listeners):
            callback()

    # -- lifecycle ---------------------------------------------------------

    def sweep(self):
        """Close connections idle past the timeout; returns how many."""
        now = self.clock.now
        closed = 0
        for host, entries in list(self._entries.items()):
            keep = []
            for entry in entries:
                if entry.active == 0 and \
                        now - entry.last_idle >= self.idle_timeout:
                    self._close(entry)
                    self.expired += 1
                    closed += 1
                    self._emit("pool_expire", host, entry)
                else:
                    keep.append(entry)
            if keep:
                self._entries[host] = keep
            else:
                del self._entries[host]
        return closed

    def close_all(self):
        for entries in self._entries.values():
            for entry in entries:
                self._close(entry)
        self._entries.clear()

    @staticmethod
    def _close(entry):
        close = getattr(entry.handle, "close", None)
        if close is not None:
            close()

    # -- accounting --------------------------------------------------------

    def stats(self):
        return {
            "opened": self.opened,
            "reused": self.reused,
            "shared": self.shared,
            "expired": self.expired,
            "live": sum(len(v) for v in self._entries.values()),
        }

    def _emit(self, name, host, entry):
        bus = self.bus
        if bus is None or not bus.wants(CAT_WORKLOAD):
            return
        bus.emit(CAT_WORKLOAD, name, {
            "host": host,
            "conn": entry.index,
            "active": entry.active,
            "carried": entry.transfers_carried,
        })
