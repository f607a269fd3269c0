"""One TCP connection's state within a TCPLS session."""

from collections import deque

from repro.tls.record import RecordReassembler


class ConnectionState:
    """One TCP connection (transport) participating in the session."""

    def __init__(self, tcp, tls=None, conn_id=0):
        #: the session and the position in its ``conns``; both unknown
        #: until the connection is registered (an accepted connection
        #: learns its session from the ClientHello and its position
        #: when it attaches)
        self.session = None
        self.index = None
        #: wire identity shared by both endpoints: 0 for the primary
        #: (the ClientHello said TCPLS Hello), credential-derived for a
        #: joined connection (it said TCPLS Join)
        self.conn_id = conn_id
        #: the transport; named ``tcp`` because that is what it models
        #: (and what two generations of tests call it).
        self.tcp = tcp
        self.tls = tls
        self.reassembler = RecordReassembler()
        #: sealed records the transport has not taken yet; written only
        #: by the session's pump (:mod:`repro.core.engine.pump`)
        self.pending_out = deque()
        #: total bytes queued in ``pending_out`` (kept incrementally so
        #: the pump's budget check is O(1) per record, not O(queue)).
        self.pending_out_bytes = 0
        self.control_stream = None
        self.last_stream = None
        #: ``(epoch, last_stream, candidates)`` of the last tag-trial
        #: order built for this connection (see ``_demux_candidates``)
        self.demux_order = (None, None, ())
        self.alive = False
        self.failed = False
        #: we sent our FIN: the transport still receives (the peer's
        #: half may be open) but can no longer accept sends.
        self.local_closed = False
        self.records_received = 0
        #: server: 0-RTT chunks decrypted before the session was up
        self.early_data = []

    @property
    def is_primary(self):
        return self.conn_id == 0

    def writable(self):
        """Bytes may be handed to TCP (handshake data included)."""
        return (not self.failed and not self.local_closed
                and self.tcp.is_open())

    def usable(self):
        """Established TCPLS connection ready for records."""
        return (self.alive and not self.failed and self.tcp.is_open()
                and self.control_stream is not None)

    def tcp_info(self):
        """Expose the underlying connection statistics (paper Sec. 3.3.3)."""
        return self.tcp.tcp_info()

    def release_handshake(self):
        """Drop the TLS handshake machine once the session has taken
        over record processing (the traffic keys live in the stream
        crypto contexts, not here).  Saves tens of kilobytes per
        connection; the mass-session server calls this after
        :meth:`TcplsEngine._takeover_tls`."""
        if self.tls is not None and self.tls.handshake_complete:
            self.tls = None

    def __repr__(self):
        state = "failed" if self.failed else (
            "alive" if self.alive else "opening"
        )
        return "Conn(%s, %s, %s->%s)" % (
            self.index, state, self.tcp.local, self.tcp.remote
        )
