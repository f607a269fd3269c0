"""Record-level failover (Sec. 3.3.2, Fig. 4): record ACKs, SYNC and
replay, and :meth:`Failover.fail`, the one way a connection dies."""

from repro.core import record as rec
from repro.core.engine.connection import (ATTACHED, CLOSED, ENDED, FAILED,
                                          recoverable)
from repro.core.engine.events import SessionEvent


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
        """``conn`` is dead: it enters FAILED (:meth:`ConnectionState.enter
        <repro.core.engine.connection.ConnectionState.enter>` resets or
        closes its transport, drops its queue and publishes the
        failure).  Unless the failure is outright, an ATTACHED
        connection fails over -- or ``_fall_back`` retries it,
        publishing nothing: the retried connection has left ``conns``
        by the time it fails."""
        if conn.state in ENDED:
            return
        session = self.session
        attached = conn.state == ATTACHED
        recover = recoverable(reason) and not session._fall_back(conn)
        conn.enter(FAILED, reason)
        if not (recover and session.failover_enabled and session.ready):
            return
        if not attached:
            # A join probe that never attached carries no stream: it is
            # no failover, but the one that waits needs the next probe.
            if self.pending:
                session._on_no_failover_target(conn)
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
        owe, else the connection closes our half too."""
        session = self.session
        if conn.state in ENDED or not session.ready:
            return
        owed = conn.pending_out or conn.tcp.unsent_bytes() or any(
            s.unacked for s in session.data_streams(conn))
        if session.failover_enabled and owed:
            self.fail(conn, "fin")
        else:
            conn.enter(CLOSED, "fin")
            session._on_clean_close(conn)

    def timed_out(self, conn):
        """UTO fired: fail over if the transport has already ended (a
        kernel UTO tears its socket down) or a transfer hangs on this
        connection.  A merely idle one is left alone: the transport
        arms its next check on its own progress."""
        if not conn.tcp.is_open() or self._has_pending_transfer(conn):
            self.fail(conn, "uto")

    def _has_pending_transfer(self, conn):
        """Is this connection carrying an unfinished transfer?  Its own
        unacknowledged bytes count: a join's handshake Finished, say,
        which no stream is bound to yet."""
        if conn.tcp.bytes_in_flight() > 0:
            return True
        session = self.session
        for stream in session.data_streams(conn):
            if (stream.pending or stream.unacked
                    or (stream.fin_pending and not stream.fin_sent)):
                return True
            # Inbound stream mid-transfer: data within TCP's own 4 x
            # UTO, no FIN yet.  Only the client can act on its stall
            # (by joining), so only the client counts it.
            if session.is_client and stream.recv_decrypted and \
                    not stream.fin_received and \
                    stream.coupled_group is None and \
                    session.clock.now - stream.last_delivery \
                    < 4 * conn.tcp.user_timeout:
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

    def _carried(self, failed_conn):
        """The data streams ``failed_conn`` carried: those attached to
        it, and those that left it with records sealed there still
        unacked (its ``departed`` book, emptied: each moves once)."""
        departed, failed_conn.departed = failed_conn.departed, {}
        return list(self.session.data_streams(failed_conn)) + [
            stream for stream, seq in departed.items()
            if stream.connection is not failed_conn and stream.unacked
            and stream.unacked[0][0] < seq]

    def _do_failover(self, failed_conn, target):
        session = self.session
        moved = self._carried(failed_conn)
        for stream in moved:
            session._attach(stream, target)
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
        self._replay(target, moved)
        session.emit(SessionEvent.FAILOVER, failed_conn, target)
        session.pump.run()

    def _replay(self, target, moved):
        """Retransmit the ``moved`` streams' stored ciphertexts as-is
        (per-stream contexts make the bytes connection-independent):
        every unacked record of a stream that moved, once; a stream
        that did not move replays nothing."""
        session = self.session
        wires = [wire for stream in moved for _seq, wire in stream.unacked]
        for wire in wires:
            session.pump.write(target, wire)
        if wires:
            session.stats["records_replayed"] += len(wires)
            session._emit("recovery", "replay",
                          {"conn": target.conn_id, "records": len(wires)})


# -- the failover rows of TcplsEngine.ROWS (each called with the session) --

def on_ack(session, conn, stream, seq, inner):
    for stream_id, next_seq in rec.decode_ack(inner.payload):
        target = session.streams.get(stream_id)
        if target is not None:
            target.prune_unacked(next_seq)


def on_sync(session, conn, stream, seq, inner):
    """Peer signalled failover: move the streams it names that are not
    on this connection yet, then the rest of what the dead connection
    carried, and replay the unacked records of what moved (Fig. 4).
    A stream our own failover already moved here replays nothing.
    The connection named is the newest with its id
    (:meth:`~repro.core.engine.session.TcplsEngine.conn_by_id`), and
    only if it has not ended."""
    failed_conn_id, entries = rec.decode_sync(inner.payload)
    session._emit("recovery", "sync_received", {
        "conn": conn.conn_id, "failed": failed_conn_id,
        "streams": len(entries),
    })
    failover = session.failover
    failed = session.conn_by_id(failed_conn_id)
    if failed is not None and (failed is conn or failed.state in ENDED):
        failed = None
    if failed is not None:
        failover.fail(failed, "sync")
    named = (session.streams.get(stream_id) for stream_id, _ in entries)
    moved = [s for s in named if s is not None and s.connection is not conn]
    if failed is not None:
        moved += [s for s in failover._carried(failed) if s not in moved]
        failover.pending = [c for c in failover.pending if c is not failed]
    for stream in moved:
        session._attach(stream, conn)
    failover._replay(conn, moved)
    session.pump.run()


def on_enable_failover(session, conn, payload):
    session.failover_enabled = True
