"""One TCP connection's state within a TCPLS session, and the one
method that changes it."""

from collections import deque

from repro.core.engine.events import SessionEvent
from repro.tls.record import RecordReassembler

#: a connection's life, picotcpls's ``tcpls_tcp_state_t`` (SNIPPETS.md
#: §1): its TCP handshake, its TLS handshake, carrying the session's
#: records, and the two ends -- failed (the reason says how) or closed
#: (our half closed on purpose or after the peer's clean FIN)
CONNECTING, HANDSHAKING, ATTACHED, FAILED, CLOSED = (
    "connecting", "handshaking", "attached", "failed", "closed")
#: the states a connection never leaves
ENDED = (FAILED, CLOSED)

#: failure reasons that end the connection outright, as every
#: ``tls:...`` does: no fallback retry, no perf totals, no failover
_OUTRIGHT = ("sync", "join-rejected")
#: failure reasons whose transport is still open: it is reset
_ABORTED = _OUTRIGHT + ("join-timeout", "protocol")


def recoverable(reason):
    """May a failure for ``reason`` be retried or failed over?"""
    return reason not in _OUTRIGHT and not reason.startswith("tls:")


class ConnectionState:
    """One TCP connection (transport) participating in the session."""

    def __init__(self, tcp, tls=None, conn_id=0):
        #: the session and the position in its ``conns``; both unknown
        #: until the connection is registered (an accepted connection
        #: learns its session from the ClientHello and its position
        #: when it attaches)
        self.session = None
        self.index = None
        #: the server engine whose books hold this connection from
        #: accept on (None on the client)
        self.server = None
        #: wire identity shared by both endpoints: 0 for the primary
        #: (the ClientHello said TCPLS Hello), credential-derived for a
        #: joined connection (it said TCPLS Join)
        self.conn_id = conn_id
        #: the transport; named ``tcp`` because that is what it models
        #: (and what two generations of tests call it).
        self.tcp = tcp
        self.tls = tls
        #: where the connection is in its life; only :meth:`enter`
        #: changes it
        self.state = CONNECTING
        #: client join: ``(pool, credential)``, the single-use credential
        #: its ClientHello carries and the list it came from
        self.credential = None
        self.reassembler = RecordReassembler()
        #: sealed records the transport has not taken yet; written only
        #: by the session's pump (:mod:`repro.core.engine.pump`)
        self.pending_out = deque()
        #: total bytes queued in ``pending_out`` (kept incrementally so
        #: the pump's budget check is O(1) per record, not O(queue)).
        self.pending_out_bytes = 0
        self.control_stream = None
        #: streams that moved off this connection with records sealed
        #: here still unacked, each with the first sequence it sealed
        #: after the move: this connection's failure replays them too
        self.departed = {}
        self.last_stream = None
        #: ``(epoch, last_stream, candidates)`` of the last tag-trial
        #: order built for this connection (see ``Demux.candidates``)
        self.demux_order = (None, None, ())
        self.records_received = 0
        #: server: 0-RTT chunks decrypted before the session was up
        self.early_data = []
        #: server: not read while its session is over its receive budget
        self.paused = False

    @property
    def is_primary(self):
        return self.conn_id == 0

    def enter(self, state, reason=None):
        """Move to ``state``: the one place a connection's state changes.

        From an ended state nothing changes.  Leaving CONNECTING and
        HANDSHAKING disarms their deadline (:meth:`expire`).  A join
        that fails still CONNECTING never sent its ClientHello, so its
        credential goes back to its pool.  Entering an ended state also

        - acts on the transport: FAILED resets it for the reasons that
          leave it open (``_ABORTED``), closes our half on ``"fin"`` and
          leaves it be on ``rst``/``uto``; CLOSED first hands it what
          fits of the queue, then closes our half after it;
        - drops the queue;
        - if the session still holds the connection, publishes
          ``session/conn_failed`` (FAILED) and, on a recoverable
          failure or the peer's clean FIN, the perf totals;
        - takes it off the server's books (:meth:`TcplsServerEngine.conn_ended
          <repro.core.engine.server.TcplsServerEngine.conn_ended>`);
        - on FAILED, calls the ``CONN_FAILED`` handlers.
        """
        old, session = self.state, self.session
        if old in ENDED:
            return
        if state == CLOSED and self.pending_out:
            session.pump.drain(self)
        self.state = state
        if state not in ENDED:
            return
        if state == FAILED and old == CONNECTING and self.credential:
            self.credential[0].insert(0, self.credential[1])
        if self.pending_out:
            session.pump.drop(self)
        recover = recoverable(reason)
        if reason in _ABORTED or not recover:
            self.tcp.abort()
        elif (state == CLOSED or reason == "fin") and self.tcp.is_open():
            self.tcp.close()
        held = session is not None and self in session.conns
        if held and state == FAILED:
            session._emit("session", "conn_failed",
                          {"conn": self.conn_id, "reason": reason})
        if held and recover and (state == FAILED or reason == "fin"):
            session.emit_perf_totals()
        if self.server is not None:
            self.server.conn_ended(self, reason)
        if held and state == FAILED:
            session.emit(SessionEvent.CONN_FAILED, self, reason)

    def expire(self, reason):
        """The deadline of CONNECTING and HANDSHAKING (a client join's
        ``join_timeout``): fail as ``reason`` unless the connection has
        left them.  It is disarmed by the state, not cancelled on the
        clock, so the clock's heap holds the same entries either way."""
        if self.state in (CONNECTING, HANDSHAKING):
            self.session.failover.fail(self, reason)

    def writable(self):
        """Bytes may be handed to TCP (handshake data included)."""
        return self.state not in ENDED and self.tcp.is_open()

    def usable(self):
        """Established TCPLS connection ready for records."""
        return self.state == ATTACHED and self.tcp.is_open()

    def tcp_info(self):
        """Expose the underlying connection statistics (paper Sec. 3.3.3)."""
        return self.tcp.tcp_info()

    def release_handshake(self):
        """Drop the TLS handshake machine once the session has taken
        over record processing (the traffic keys live in the stream
        crypto contexts, not here).  Saves tens of kilobytes per
        connection; the server engine calls this a tick after
        :meth:`TcplsEngine._takeover_tls`."""
        if self.tls is not None and self.tls.handshake_complete:
            self.tls = None

    def __repr__(self):
        return "Conn(%s, %s, %s->%s)" % (
            self.index, self.state, self.tcp.local, self.tcp.remote
        )
