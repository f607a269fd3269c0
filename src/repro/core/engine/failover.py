"""Record-level failover (Sec. 3.3.2, Fig. 4): record ACKs, SYNC and
replay, and :meth:`Failover.fail`, the one way a connection dies."""

from repro.core import record as rec
from repro.core.engine.events import SessionEvent

#: failure reasons that end the connection outright: no fallback retry,
#: no perf totals, no failover (``tls:`` stands for every ``tls:...``)
_OUTRIGHT = frozenset(("sync", "join-rejected", "tls:"))
#: failure reasons whose transport is still open and is reset here
_ABORTED = frozenset(("sync", "join-rejected", "tls:", "join-timeout",
                      "protocol"))


class Failover:
    """One session's failover state and the failure body (the
    session's ``failover``)."""

    def __init__(self, session):
        self.session = session
        #: connections that failed with no alternate available yet;
        #: resolved as soon as a usable connection (re)appears.
        self.pending = []
        #: when every data stream was last re-acknowledged
        self._last_ack_all = -1.0

    # -- record ACKs --------------------------------------------------------

    def maybe_ack(self, conn, stream, payload_len, fin=False):
        """Acknowledge ``stream`` every ``ack_interval`` records (or
        their worth of bytes), and everything on a FIN."""
        session = self.session
        if not session.failover_enabled:
            return
        stream.records_since_ack += 1
        stream.bytes_since_ack += payload_len
        # A FIN record acks immediately -- covering every data stream,
        # since a coupled transfer's FIN rides only one member stream --
        # so the sender's replay buffer empties when the transfer ends.
        if fin:
            data_streams = self._received_streams()
            self.send_ack(conn, data_streams or [stream])
            for acked in data_streams:
                acked.records_since_ack = 0
                acked.bytes_since_ack = 0
            return
        if (stream.records_since_ack >= session.ack_interval
                or stream.bytes_since_ack >= session.ack_interval *
                session.record_payload):
            self.send_ack(conn, [stream])
            stream.records_since_ack = 0
            stream.bytes_since_ack = 0

    def reack(self, conn):
        """A record no stream could open: a duplicate failover replay
        means one of our ACKs was lost with the dead connection, so
        re-acknowledge everything (at most every 50 ms) for the peer to
        prune its replay buffer and stop."""
        session = self.session
        if not session.failover_enabled:
            return
        now = session.clock.now
        if now - self._last_ack_all < 0.05:
            return
        self._last_ack_all = now
        data_streams = self._received_streams()
        if data_streams:
            self.send_ack(conn, data_streams)

    def _received_streams(self):
        """Every data stream that has opened a record."""
        session = self.session
        return [s for s in session.streams.values()
                if not session._is_control(s) and s.recv_decrypted]

    def send_ack(self, conn, streams):
        session = self.session
        target = conn if conn.usable() else session._first_writable()
        if target is None:
            return
        entries = [s.ack_state() for s in streams]
        session.pump.send_typed(target, rec.RECORD_TYPE_ACK,
                                rec.encode_ack(entries))
        session.stats["acks_sent"] += 1

    # -- the failure body ---------------------------------------------------

    def fail(self, conn, reason):
        """``conn`` is dead: mark it failed, reset its transport if still
        open, drop its queue, publish ``session/conn_failed`` and call
        the ``CONN_FAILED`` handlers.  Unless the failure is outright,
        publish the perf totals and fail over -- or let ``_fall_back``
        retry it, publishing nothing."""
        if conn.failed:
            return
        kind = "tls:" if reason.startswith("tls:") else reason
        recover = kind not in _OUTRIGHT
        conn.failed = True
        conn.alive = False
        if kind in _ABORTED:
            conn.tcp.abort()
        session = self.session
        session.pump.drop(conn)
        if recover and session._fall_back(conn):
            return
        session._emit("session", "conn_failed",
                      {"conn": conn.conn_id, "reason": reason})
        if recover:
            session.emit_perf_totals()
        session.emit(SessionEvent.CONN_FAILED, conn, reason)
        if not (recover and session.failover_enabled and session.ready):
            return
        session.stats["failovers"] += 1
        target = self._failover_target(conn)
        if target is None:
            self.pending.append(conn)
            session._emit("recovery", "failover_pending",
                          {"conn": conn.conn_id, "reason": reason})
            session._on_no_failover_target(conn)
            return
        self._do_failover(conn, target)

    def peer_closed(self, conn):
        """The peer's FIN: a failure if it strands records we still
        owe, else the connection just stops carrying."""
        session = self.session
        if conn.failed or not session.ready:
            return
        has_unacked = any(s.unacked for s in session.data_streams(conn))
        pending = conn.pending_out or conn.tcp.unsent_bytes()
        if session.failover_enabled and (has_unacked or pending):
            self.fail(conn, "fin")
        else:
            conn.alive = False
            session.emit_perf_totals()
            session._on_clean_close(conn)

    def timed_out(self, conn):
        """UTO fired: fail over only if a transfer actually hangs on
        this connection; a merely idle session re-arms the timer."""
        if self._has_pending_transfer(conn):
            self.fail(conn, "uto")
        elif conn.tcp.user_timeout is not None:
            conn.tcp.set_user_timeout(conn.tcp.user_timeout)

    def _has_pending_transfer(self, conn):
        """Is this connection carrying an unfinished transfer?"""
        session = self.session
        for stream in session.data_streams(conn):
            if (stream.pending or stream.unacked
                    or (stream.fin_pending and not stream.fin_sent)):
                return True
            # Inbound stream mid-transfer: recent data, no FIN yet.
            if stream.recv_decrypted and not stream.fin_received and \
                    stream.coupled_group is None and \
                    session.clock.now - stream.last_delivery < 2.0:
                return True
        for group in session.groups.values():
            if not any(s.connection is conn for s in group.streams):
                continue
            if group.pending or (group.fin_pending and not group.fin_sent):
                return True
            if group.bytes_delivered and not group.complete:
                return True
        return False

    # -- moving streams -----------------------------------------------------

    def resolve(self, new_conn):
        """A connection became usable; complete any stalled failovers."""
        pending, self.pending = self.pending, []
        for failed in pending:
            self._do_failover(failed, new_conn)

    def _failover_target(self, failed_conn):
        """Prefer a connection on different addresses than the failed one
        (Sec. 4.2)."""
        alive = [c for c in self.session.conns if c is not failed_conn
                 and c.usable()]
        if not alive:
            return None
        different = [
            c for c in alive
            if c.tcp.local.addr != failed_conn.tcp.local.addr
            and c.tcp.remote.addr != failed_conn.tcp.remote.addr
        ]
        return (different or alive)[0]

    def _migrate(self, failed_conn, target):
        """Attach ``failed_conn``'s data streams to ``target``."""
        moved = list(self.session.data_streams(failed_conn))
        for stream in moved:
            self.session._attach(stream, target)
        return moved

    def _do_failover(self, failed_conn, target):
        session = self.session
        moved = self._migrate(failed_conn, target)
        entries = []
        for stream in moved:
            resume = stream.unacked[0][0] if stream.unacked else \
                stream.ctx_send.send_seq
            entries.append((stream.stream_id, resume))
        session._emit("recovery", "failover", {
            "from": failed_conn.conn_id, "to": target.conn_id,
            "streams": len(moved),
        })
        session.pump.send_typed(
            target, rec.RECORD_TYPE_SYNC,
            rec.encode_sync(failed_conn.conn_id, entries),
        )
        session.stats["syncs_sent"] += 1
        self._replay_unacked(target)
        session.emit(SessionEvent.FAILOVER, failed_conn, target)
        session.pump.run()

    def _replay_unacked(self, target):
        """Retransmit stored ciphertexts as-is (per-stream contexts make
        the bytes connection-independent)."""
        session = self.session
        replayed = 0
        for stream in session.data_streams(target):
            for _seq, wire in stream.unacked:
                session.pump.write(target, wire)
                session.stats["records_replayed"] += 1
                replayed += 1
        if replayed:
            session._emit("recovery", "replay",
                          {"conn": target.conn_id, "records": replayed})


# -- the failover rows of TcplsEngine.ROWS (each called with the session) --

def on_ack(session, conn, stream, seq, inner):
    for stream_id, next_seq in rec.decode_ack(inner.payload):
        target = session.streams.get(stream_id)
        if target is not None:
            target.prune_unacked(next_seq)


def on_sync(session, conn, stream, seq, inner):
    """Peer signalled failover: reattach our view of its streams to
    this connection, move our own streams off the dead connection,
    and replay our unacked records (Fig. 4)."""
    failed_conn_id, entries = rec.decode_sync(inner.payload)
    session._emit("recovery", "sync_received", {
        "conn": conn.conn_id, "failed": failed_conn_id,
        "streams": len(entries),
    })
    failover = session.failover
    failed = next(
        (c for c in session.conns if c.conn_id == failed_conn_id
         and c is not conn),
        None,
    )
    if failed is not None:
        failover.fail(failed, "sync")
    for stream_id, _resume_seq in entries:
        named = session.streams.get(stream_id)
        if named is not None:
            session._attach(named, conn)
    if failed is not None:
        failover._migrate(failed, conn)
        failover.pending = [c for c in failover.pending if c is not failed]
    failover._replay_unacked(conn)
    session.pump.run()


def on_enable_failover(session, conn, payload):
    session.failover_enabled = True
