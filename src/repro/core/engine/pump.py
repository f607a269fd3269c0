"""The send side of a TCPLS session (Sec. 3.3.3): seal, book, queue,
drain.  Only this module writes a connection's ``pending_out``."""

from repro.core import record as rec
from repro.core.engine.connection import ENDED
from repro.core.engine.policy import RecordContext
from repro.tls.record import RECORD_HEADER_SIZE

#: bytes allowed to sit unsent in one TCP connection's buffer before
#: the pump stops sealing records for it (keeps data steerable).
UNSENT_TARGET = 128 * 1024

_STREAM_DATA = rec.RECORD_TYPE_STREAM_DATA
#: a stream record's trailer: its flags, then the record's last two
#: bytes (control length, type); the same length with or without FIN
_DATA_TRAILER = rec.encode_trailer(_STREAM_DATA, rec.encode_stream_control(0))
_FIN_TRAILER = rec.encode_trailer(_STREAM_DATA,
                                  rec.encode_stream_control(rec.FLAG_FIN))
_TRAILER_SIZE = len(_DATA_TRAILER)


def _cut(channel, size):
    """The next ``size`` bytes ``channel`` has queued (no more than it
    has), as a list of the parts they lie in: whole chunks that
    ``send`` took and views of them -- no byte is copied."""
    chunks = channel.pending
    channel.queued_bytes -= size
    parts = []
    while size:
        chunk = chunks[0]
        length = len(chunk)
        if size < length:
            view = memoryview(chunk)
            parts.append(view[:size])
            chunks[0] = view[size:]
            break
        parts.append(chunks.popleft())
        size -= length
    return parts


class Pump:
    """One session's send side (the session's ``pump``)."""

    def __init__(self, session):
        self.session = session

    # -- the connection queue -------------------------------------------

    def write(self, conn, data):
        """Queue ``data`` (a handshake flight or a replayed record) on
        ``conn`` and hand the transport what it takes.  An ended
        connection's queue stays empty: nothing would ever leave it."""
        if conn.state in ENDED:
            return
        conn.pending_out.append(data)
        conn.pending_out_bytes += len(data)
        self.drain(conn)

    def drain(self, conn):
        """Move queued records into the transport, in order, while each
        fits in its send space."""
        if not conn.writable():
            return
        while conn.pending_out:
            head = conn.pending_out[0]
            if conn.tcp.send_space() < len(head):
                break
            conn.tcp.send(head)
            conn.pending_out.popleft()
            conn.pending_out_bytes -= len(head)

    def drop(self, conn):
        """Forget ``conn``'s queue: the connection failed or closed.
        Data records in it are covered by their streams' replay store;
        control records were the connection's own."""
        conn.pending_out.clear()
        conn.pending_out_bytes = 0

    def _conn_budget(self, conn):
        """Bytes the pump may still seal for this connection.

        Bounded by the congestion window (about two windows' worth may
        wait in the TCP buffer) so the scheduler cannot bury megabytes
        in a slow path's queue -- that data could neither be steered
        away nor delivered in order by the coupled reorder buffer.
        """
        if not conn.writable():
            return 0
        queued = conn.pending_out_bytes
        backlog = conn.tcp.unsent_bytes() + queued
        target = min(UNSENT_TARGET,
                     2 * int(conn.tcp.congestion_window())
                     + self.session.record_payload)
        return max(target - backlog, 0)

    # -- sealing ----------------------------------------------------------

    def send_control(self, conn, payload):
        self.send_typed(conn, rec.RECORD_TYPE_CONTROL, payload)

    def send_typed(self, conn, record_type, payload):
        """Seal one record on ``conn``'s control stream."""
        self._seal_batch(conn, conn.control_stream,
                         [(payload, rec.encode_trailer(record_type))],
                         record_type)

    def _seal_batch(self, conn, stream, inners, record_type=_STREAM_DATA):
        """Seal a batch of records on ``stream`` (:meth:`seal_records
        <repro.core.crypto_context.StreamCryptoContext.seal_records>`,
        each inner plaintext as its parts) and book it: unacked replay
        copies (STREAM_DATA only: control streams are never replayed),
        stats, per-record trace events, one queue append and one
        transport drain."""
        session = self.session
        ctx = stream.ctx_send
        first_seq = ctx.send_seq
        wires = ctx.seal_records(inners)
        if record_type == _STREAM_DATA and session.failover_enabled:
            unacked = stream.unacked
            seq = first_seq
            for wire in wires:
                unacked.append((seq, wire))
                seq += 1
        count = len(wires)
        total = sum(map(len, wires))
        stats = session.stats
        stats["records_sent"] += count
        stats["bytes_sealed"] += total - count * (RECORD_HEADER_SIZE
                                                  + ctx.cipher.tag_size)
        if session.bus.wants("tls"):
            seq = first_seq
            for wire in wires:
                session._emit("tls", "record_sealed", {
                    "conn": conn.conn_id, "stream": stream.stream_id,
                    "seq": seq, "type": record_type, "length": len(wire),
                })
                seq += 1
        if conn.state in ENDED:
            return
        conn.pending_out.extend(wires)
        conn.pending_out_bytes += total
        self.drain(conn)

    # -- the pump -----------------------------------------------------------

    def run(self):
        """Seal pending application bytes into records wherever there is
        room.  Called on sends, ACK progress and topology changes."""
        session = self.session
        if not session.ready:
            return
        progressed = True
        while progressed:
            progressed = False
            for group in session.groups.values():
                if group.pending or (group.fin_pending
                                     and not group.fin_sent):
                    progressed |= self._pump_group(group)
            for stream in session.streams.values():
                conn = stream.connection
                if (stream.pending or (stream.fin_pending
                                       and not stream.fin_sent)) \
                        and stream.coupled_group is None \
                        and conn is not None \
                        and conn.control_stream is not stream:
                    progressed |= self._pump_stream(stream)

    def _chunk_size(self, control_len):
        return self.session.record_payload - control_len - 2

    def _pump_stream(self, stream):
        """Seal pending stream bytes into records, a batch at a time.

        The outer loop recomputes the true connection budget; the inner
        loop seals against a conservative local copy (decremented by
        each record's full wire length, i.e. assuming nothing leaves the
        TCP buffer meanwhile), so a batch never seals a record the
        record-at-a-time pump would not have.  Within a batch the
        framing, AEAD sealing (:meth:`seal_records`), unacked
        bookkeeping and transport drain each run as one pass instead of
        per record -- same records, same wire bytes, one ``drain`` per
        batch.  A record's payload is cut out of the queued chunks as
        views (:func:`_cut`); the cipher's gather of the wire record is
        the only copy the send path makes of it.
        """
        conn = stream.connection
        sent = False
        while (stream.pending or
               (stream.fin_pending and not stream.fin_sent)):
            if conn is None or not conn.usable():
                break
            budget = self._conn_budget(conn)
            if budget <= 0:
                break
            size = self._chunk_size(rec.STREAM_CONTROL_SIZE)
            overhead = (stream.ctx_send.cipher.tag_size + RECORD_HEADER_SIZE
                        + _TRAILER_SIZE)
            fin_left = stream.fin_pending and not stream.fin_sent
            inners = []
            while budget > 0 and (stream.pending or fin_left):
                last = fin_left and stream.queued_bytes <= size
                consumed = min(size, stream.queued_bytes)
                budget -= consumed + overhead
                parts = _cut(stream, consumed)
                parts.append(_FIN_TRAILER if last else _DATA_TRAILER)
                inners.append(parts)
                if last:
                    fin_left = False
                    stream.fin_sent = True
            self._seal_batch(conn, stream, inners)
            sent = True
        return sent

    def _pick_targets(self, group, candidates):
        """Consult the group's policy for the next record's streams.

        Replication is a declared capability
        (:attr:`~repro.core.engine.policy.Policy.replicate`), not a
        return-type convention: a replicating policy fans out to every
        candidate, every other policy names exactly one stream.
        """
        policy = group.scheduler
        if getattr(policy, "replicate", False):
            return list(candidates)
        return [policy.pick_stream(candidates, RecordContext(
            group=group, session=self.session,
            now=self.session.clock.now))]

    def _pump_group(self, group):
        session = self.session
        sent = False
        while (group.pending or
               (group.fin_pending and not group.fin_sent)):
            candidates = [
                s for s in group.streams
                if s.connection is not None and s.connection.usable()
                and self._conn_budget(s.connection) > 0
            ]
            if not candidates:
                break
            targets = self._pick_targets(group, candidates)
            if session.bus.wants("scheduler"):
                session._emit("scheduler", "pick", {
                    "group": group.group_id,
                    "scheduler": getattr(group.scheduler, "name", "custom"),
                    "streams": [t.stream_id for t in targets],
                    "candidates": len(candidates),
                })
            last = (
                group.fin_pending
                and group.queued_bytes
                <= self._chunk_size(rec.COUPLED_CONTROL_SIZE)
            )
            control = group.next_control(fin=last)
            parts = _cut(group, min(self._chunk_size(len(control)),
                                    group.queued_bytes))
            parts.append(rec.encode_trailer(_STREAM_DATA, control))
            for stream in targets:
                self._seal_batch(stream.connection, stream, [parts])
            if last:
                group.fin_sent = True
            sent = True
        return sent
