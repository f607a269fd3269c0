"""TCPLS streams and coupled-stream groups.

A :class:`TcplsStream` is one encrypted byte sequence attached to one
TCP connection at a time, with its own cryptographic context (Fig. 2
IV) and record sequence space in each direction.  A
:class:`CoupledGroup` aggregates one stream per TCP connection to carry
a single application object across paths (Sec. 3.3.3): each record
carries an explicit group sequence number in its control tail and the
receiver reorders with a heap.
"""

from repro.core.crypto_context import StreamCryptoContext
from repro.core.engine.events import SessionEvent
from repro.core.errors import StreamClosedError
from repro.core.record import (
    FLAG_COUPLED,
    FLAG_FIN,
    encode_stream_control,
)
from repro.core.reorder import ReorderBuffer
from repro.tcp.ranges import RangeSet

#: emitted on every read that returns bytes; a module global reads
#: faster than an enum class attribute
_DRAIN = SessionEvent.DRAIN

#: per-connection implicit control stream ids (the primary connection
#: uses stream 0, which is exactly the TLS application-data context).
CONTROL_STREAM_BASE = 0xFFFF0000


def control_stream_id(conn_id):
    """Control stream for a connection's wire identity.

    The primary connection has id 0; joined connections derive theirs
    from the join cookie (both endpoints know it), so the two sides
    always agree regardless of how many join *attempts* failed.
    """
    return 0 if conn_id == 0 else CONTROL_STREAM_BASE + (conn_id & 0xFFFF)


def conn_id_from_cookie(cookie):
    """Map a join cookie to a nonzero 16-bit connection identity."""
    value = int.from_bytes(cookie[:2], "big")
    return (value % 0xFFFE) + 1


class _Channel:
    """What a stream and a coupled group share on the application side:
    the half-close, the delivered bytes and the unsealed backlog."""

    def send(self, data):
        """Queue application bytes (sealed lazily at transmit time so
        steering can redirect not-yet-sent data)."""
        if self.fin_pending:
            raise StreamClosedError("send on closed %r" % (self,))
        self.pending += data
        self.session.pump.run()
        return len(data)

    def close(self):
        """Half-close: a FIN flag rides the last record."""
        if not self.fin_pending:
            self.fin_pending = True
            self.session.pump.run()

    def recv(self, n=None):
        """Read delivered bytes."""
        if n is None or n >= len(self.recv_buffer):
            data = bytes(self.recv_buffer)
            self.recv_buffer.clear()
        else:
            data = bytes(self.recv_buffer[:n])
            del self.recv_buffer[:n]
        if data:
            # Bytes left the session: a paused reader may resume.
            for handler in self.session._handlers[_DRAIN]:
                handler(self.session)
        return data

    @property
    def queued_bytes(self):
        """Application bytes accepted but not yet sealed into records."""
        return len(self.pending)


class TcplsStream(_Channel):
    """One TCPLS stream endpoint (both directions)."""

    def __init__(self, session, stream_id, connection, cipher_send,
                 cipher_recv, send_iv, recv_iv, coupled_group=None):
        self.session = session
        self.stream_id = stream_id
        self.connection = connection
        self.coupled_group = coupled_group
        self.ctx_send = StreamCryptoContext(cipher_send, send_iv, stream_id)
        self.ctx_recv = StreamCryptoContext(cipher_recv, recv_iv, stream_id)
        # Send side.
        self.pending = bytearray()       # app bytes not yet sealed
        self.unacked = []                # [(record_seq, wire_bytes)]
        self.fin_pending = False
        self.fin_sent = False
        # Receive side.
        self.recv_decrypted = RangeSet()
        self.recv_reorder = ReorderBuffer()
        self.recv_buffer = bytearray()
        self.records_delivered = 0
        self.last_delivery = float("-inf")
        self.records_since_ack = 0
        self.bytes_since_ack = 0
        self.fin_received = False

    # -- receive-side demux helpers ----------------------------------------

    def primary_trial_seq(self):
        """The single most likely next sequence (fast path): the lowest
        one not yet decrypted.  O(1) -- sequences start at 0, so the
        contiguous prefix can only be the first range."""
        first = self.recv_decrypted.first_range_at_or_above(0)
        if first is not None and first[0] == 0:
            return first[1]
        return 0

    def trial_seqs(self, window):
        """Candidate record sequences for tag trial: the first ``window``
        not-yet-decrypted sequences starting at the lowest gap."""
        base = self.primary_trial_seq()
        gaps = self.recv_decrypted.complement_within(base, base + window)
        seqs = []
        for start, end in gaps:
            for seq in range(start, min(end, start + window)):
                seqs.append(seq)
                if len(seqs) >= window:
                    return seqs
        return seqs

    def mark_decrypted(self, seq):
        self.recv_decrypted.add(seq, seq + 1)

    def ack_state(self):
        """(stream_id, next contiguous decrypted record seq) for ACKs."""
        return (self.stream_id, self.primary_trial_seq())

    def prune_unacked(self, next_seq):
        """Peer acknowledged everything below ``next_seq``."""
        self.unacked = [(s, rec) for s, rec in self.unacked if s >= next_seq]

    def __repr__(self):
        return "TcplsStream(%d on conn%s)" % (
            self.stream_id,
            self.connection.index if self.connection else "?",
        )


class CoupledGroup(_Channel):
    """A set of coupled streams carrying one application object.

    The sender schedules sealed records across member streams (one per
    TCP connection); every record's control tail carries the group
    sequence number used by the receiver's reordering heap.
    """

    def __init__(self, session, group_id, scheduler):
        self.session = session
        self.group_id = group_id
        self.scheduler = scheduler
        self.streams = []
        self.pending = bytearray()
        self.next_group_seq = 0
        self.reorder = ReorderBuffer()
        self.recv_buffer = bytearray()
        self.bytes_delivered = 0
        self.fin_pending = False
        self.fin_sent = False
        self.fin_received = False
        self.fin_seq = None

    @property
    def complete(self):
        """All object bytes up to the sender's FIN have been delivered."""
        return (self.fin_received and self.fin_seq is not None
                and self.reorder.next_seq > self.fin_seq)

    def add_stream(self, stream):
        stream.coupled_group = self.group_id
        self.streams.append(stream)

    def remove_stream(self, stream):
        """Stop scheduling over this stream (e.g. migration away)."""
        if stream in self.streams:
            self.streams.remove(stream)
        stream.coupled_group = None

    def next_control(self, fin=False):
        """Allocate the control tail for the next scheduled record."""
        flags = FLAG_COUPLED | FLAG_FIN if fin else FLAG_COUPLED
        control = encode_stream_control(flags, self.next_group_seq)
        self.next_group_seq += 1
        return control

    def __repr__(self):
        return "CoupledGroup(%d, %d streams)" % (
            self.group_id, len(self.streams)
        )
