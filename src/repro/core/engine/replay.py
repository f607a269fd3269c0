"""Deterministic record/replay of engine inputs.

Because the engine is sans-I/O, a session's entire behaviour is a pure
function of its input-event sequence.  Setting ``engine.input_log`` to
an :class:`InputLog` captures that sequence ``(t, kind, conn_id,
data)``; :meth:`InputLog.replay_into` later drives a fresh engine
through the identical inputs -- a post-mortem debugger for protocol
bugs observed in any driver.  The replay harness itself (the I/O-free
``StubDriver``, its ``ReplayTransport`` and ``bootstrap_ready_session``,
which builds a ready post-handshake session from raw key material) is
a driver, so it lives in :mod:`repro.core.drivers.stub`.
"""

from repro.core.errors import DriverError


class InputLog:
    """An append-only log of the engine's external input events."""

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
        engine's clock is run to each entry's timestamp first (firing
        the timers due by then, each at its deadline) so time-dependent
        logic (ACK rate limits, idle-transfer detection) behaves
        identically.
        Logging is suspended during replay so a log replayed into an
        engine that records its own inputs does not double up.
        """
        saved, engine.input_log = engine.input_log, None
        try:
            for t, kind, conn_id, data in self.entries:
                if t > engine.clock.now:
                    engine.clock.run(until=t)
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


__all__ = ["InputLog"]
