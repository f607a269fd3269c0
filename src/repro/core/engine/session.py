"""The sans-I/O TCPLS session engine: multiplexing, joining, failover.

A :class:`TcplsEngine` owns one or more transports (paths), the streams
and coupled groups multiplexed over them, and the control machinery of
Secs. 3-4 of the paper.  What a ClientHello asks for and how it is
answered is role-specific and lives in :mod:`repro.core.engine.client` /
:mod:`repro.core.engine.server`; how a connection then enters the
session (:meth:`TcplsEngine.attach_conn`) and everything after it is
symmetric and lives here.

The engine is I/O-agnostic: it consumes input events
(:meth:`bytes_received`, :meth:`conn_writable`, :meth:`conn_failed`,
:meth:`conn_closed`, :meth:`user_timeout_fired`, clock timers) and
emits effects only through the :class:`~repro.core.engine.interfaces`
contracts -- write bytes on a transport, arm a timer, deliver
application data, publish an observability event.  It never touches
:mod:`repro.net` or :mod:`repro.tcp`; drivers do.

Receive-path demultiplexing (Sec. 4.1): records carry no stream id; the
session first tries the connection's last successful stream at its next
expected sequence, then the other attached streams, then widens to a
bounded trial window of sequences -- which is what makes stream
steering and failover replay work without explicit wire signalling.
"""

from collections import deque

from repro.core import record as rec
from repro.core.crypto_context import prepare_record
from repro.core.errors import SessionNotReadyError, TcplsProtocolError
from repro.core.engine.events import EventSource, SessionEvent, slot
from repro.core.engine.policy import RecordContext, RoundRobinScheduler
from repro.core.stream import CoupledGroup, TcplsStream, control_stream_id
from repro.tls.record import RECORD_HEADER_SIZE, RecordReassembler

#: bytes allowed to sit unsent in one TCP connection's buffer before
#: the pump stops sealing records for it (keeps data steerable).
UNSENT_TARGET = 128 * 1024

#: CONTROL opcodes' rows in :attr:`TcplsEngine.ROWS` are keyed
#: ``(_CONTROL, opcode)``
_CONTROL = rec.RECORD_TYPE_CONTROL

#: the events emitted per record or per ACK, as module globals: reading
#: one costs a fraction of an enum class attribute
_STREAM_DATA = SessionEvent.STREAM_DATA
_GROUP_DATA = SessionEvent.GROUP_DATA
_WRITABLE = SessionEvent.WRITABLE


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
    def transport(self):
        """Alias for :attr:`tcp` (the driver-facing name)."""
        return self.tcp

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


class TcplsEngine(EventSource):
    """Shared session logic for both endpoints, over any driver."""

    #: sequences tried per stream before a record is declared
    #: undecryptable (the slow pass of the tag-trial demux)
    trial_window = 64

    # The application's slots, one per session event (see
    # repro.core.engine.events); library code subscribes instead.
    on_ready = slot(SessionEvent.READY)
    on_stream_data = slot(SessionEvent.STREAM_DATA)
    on_group_data = slot(SessionEvent.GROUP_DATA)
    on_stream_open = slot(SessionEvent.STREAM_OPEN)
    on_conn_established = slot(SessionEvent.CONN_ESTABLISHED)
    on_conn_failed = slot(SessionEvent.CONN_FAILED)
    on_failover = slot(SessionEvent.FAILOVER)
    on_join = slot(SessionEvent.JOIN)
    on_pong = slot(SessionEvent.PONG)
    on_ebpf_attached = slot(SessionEvent.EBPF_ATTACHED)
    on_writable = slot(SessionEvent.WRITABLE)
    on_tcp_option = slot(SessionEvent.TCP_OPTION)
    on_drain = slot(SessionEvent.DRAIN)

    def __init__(self, driver, is_client, record_payload=16384,
                 ack_interval=16):
        super().__init__()
        self.driver = driver
        self.clock = driver.clock
        self.bus = driver.bus
        #: stable per-simulation ordinal carried in every event this
        #: session emits (the scoping key for bus subscriptions)
        self.obs_id = self.bus.next_id("session")
        self.is_client = is_client
        self.record_payload = record_payload
        self.ack_interval = ack_interval

        self.conns = []
        self.streams = {}
        #: bumped whenever the stream set or an attachment changes
        #: (invalidates every connection's cached tag-trial order)
        self._demux_epoch = 0
        self.groups = {}
        self._next_stream_id = 1 if is_client else 2
        self._next_group_id = 1 if is_client else 2

        self.tcpls_enabled = False
        #: client: the server reset the TCPLS handshake and the session
        #: was re-opened as plain TLS (Sec. 5.2)
        self.fell_back = False
        self.ready = False
        self.failover_enabled = False
        #: when set, every connection (primary and joined) automatically
        #: arms this User Timeout on establishment
        self.auto_user_timeout = None
        self.session_id = None
        self.cookies = []            # client: unused join cookies
        self.tokens = []             # client: unlinkable join tokens
        self.peer_addresses = []

        self._cipher_cls = None
        self._send_key = None
        self._recv_key = None
        self._send_iv = None
        self._recv_iv = None

        self._ebpf_chunks = {}
        self._last_ack_all = -1.0
        self._tcpinfo_callbacks = {}
        #: connections that failed with no alternate available yet;
        #: resolved as soon as a usable connection (re)appears.
        self._pending_failover = []
        #: optional :class:`~repro.core.engine.replay.InputLog`; when
        #: set, every external input event is appended for deterministic
        #: replay (debugging).
        self.input_log = None

        # Statistics (the ablation benches read these).
        self.stats = {
            "records_sent": 0,
            "records_received": 0,
            "tag_trials": 0,
            "demux_fallbacks": 0,
            "demux_drops": 0,
            "acks_sent": 0,
            "syncs_sent": 0,
            "records_replayed": 0,
            "failovers": 0,
            "bytes_sealed": 0,
            "bytes_opened": 0,
        }

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def _emit(self, category, name, data=None):
        """Publish one session-scoped event (adds the session id and
        role); a no-op when nothing subscribed to ``category``."""
        bus = self.bus
        if not bus.wants(category):
            return
        payload = {"session": self.obs_id,
                   "role": "client" if self.is_client else "server"}
        if data:
            payload.update(data)
        bus.emit(category, name, payload)

    def emit_perf_totals(self):
        """Publish cumulative seal/open byte counts and event-loop
        compaction stats on the ``perf`` category."""
        self._emit("perf", "crypto_totals", {
            "bytes_sealed": self.stats["bytes_sealed"],
            "bytes_opened": self.stats["bytes_opened"],
            "records_sent": self.stats["records_sent"],
            "records_received": self.stats["records_received"],
            "heap_compactions": self.clock.compactions,
        })

    # ------------------------------------------------------------------
    # Input events (the driver-facing surface)
    # ------------------------------------------------------------------

    def _log_input(self, kind, conn, data=None):
        if self.input_log is not None:
            self.input_log.record(self.clock.now, kind, conn.conn_id, data)

    def bytes_received(self, conn, data):
        """Input: ordered bytes arrived on ``conn``."""
        if not data:
            return
        if self.input_log is not None:
            self._log_input("bytes", conn, bytes(data))
        if conn.tls is not None and not conn.tls.handshake_complete:
            self._feed_handshake(conn, data)
            return
        records = conn.reassembler.feed(data)
        if records:
            self._process_records(conn, records)

    def conn_writable(self, conn):
        """Input: the transport drained some of its buffer.

        The whole session is pumped, not ``conn``'s share of it: TCP
        reports send space before it sends on the same ACK, so a
        connection's budget can re-open just after its own pump, and
        the next ACK on *any* connection is what notices.
        """
        if self.input_log is not None:
            self._log_input("writable", conn)
        self._drain(conn)
        self._pump()
        for handler in self._handlers[_WRITABLE]:
            handler(self)

    def conn_failed(self, conn, reason):
        """Input: the connection died (RST, timeout, driver error)."""
        self._log_input("failed", conn, reason)
        self._conn_failed(conn, reason)

    def conn_closed(self, conn):
        """Input: the peer closed the connection cleanly (FIN)."""
        self._log_input("closed", conn)
        self._conn_closed(conn)

    def user_timeout_fired(self, conn):
        """Input: the armed user timeout elapsed without progress."""
        self._log_input("user_timeout", conn)
        self._on_user_timeout(conn)

    def conn_by_id(self, conn_id):
        """Resolve a wire connection id (replay helper)."""
        for conn in self.conns:
            if conn.conn_id == conn_id:
                return conn
        return None

    # ------------------------------------------------------------------
    # Key material
    # ------------------------------------------------------------------

    def _setup_keys(self, schedule, cipher_cls):
        """Install application traffic keys from a completed handshake."""
        client_keys = schedule.client_application
        server_keys = schedule.server_application
        if self.is_client:
            send, recv = client_keys, server_keys
        else:
            send, recv = server_keys, client_keys
        self.install_raw_keys(cipher_cls, send.key, recv.key,
                              send.iv, recv.iv)

    def install_raw_keys(self, cipher_cls, send_key, recv_key,
                         send_iv, recv_iv):
        """Install application traffic keys directly (used by the
        handshake path above, and by replay/debug harnesses that
        bootstrap a session from captured key material)."""
        self._cipher_cls = cipher_cls
        self._send_key = cipher_cls(send_key)
        self._recv_key = cipher_cls(recv_key)
        self._send_iv = send_iv
        self._recv_iv = recv_iv
        self._emit("tls", "keys_installed",
                   {"cipher": getattr(cipher_cls, "name", cipher_cls.__name__)})

    def _make_stream(self, stream_id, conn, coupled_group=None):
        stream = TcplsStream(
            self, stream_id, conn,
            cipher_send=self._send_key, cipher_recv=self._recv_key,
            send_iv=self._send_iv, recv_iv=self._recv_iv,
            coupled_group=coupled_group,
        )
        self.streams[stream_id] = stream
        self._demux_epoch += 1
        self._emit("session", "stream_created", {
            "stream": stream_id, "conn": conn.conn_id,
            "group": coupled_group or 0,
        })
        return stream

    def _install_control_stream(self, conn):
        sid = control_stream_id(conn.conn_id)
        conn.control_stream = self._make_stream(sid, conn)

    # ------------------------------------------------------------------
    # Attachment: the one way a connection enters the session
    # ------------------------------------------------------------------

    def _register(self, conn):
        """Give ``conn`` its place in ``conns`` and route its
        transport's events here.  A connection this endpoint opened is
        registered when it opens (``close()`` and the failover engine
        must see it while it is still handshaking); an accepted one
        when it attaches."""
        conn.session = self
        conn.index = len(self.conns)
        self.conns.append(conn)
        self._wire_tcp_callbacks(conn)
        return conn

    def _open_conn(self, tcp, tls=None, conn_id=0):
        """Track a transport this endpoint opened itself."""
        return self._register(ConnectionState(tcp, tls, conn_id))

    def attach_conn(self, conn, role_step=None):
        """``conn`` finished its handshake: make it carry the session
        (Sec. 3.2-3.3.2, Fig. 3).

        Client, server and replay bootstrap all come through here.  The
        caller has already decided *which* session (TCPLS Hello opens
        one, TCPLS Join names one) and set ``tcpls_enabled``; whether
        the connection is the primary is what its ClientHello said
        (``conn_id == 0``), never the order in which handshakes happened
        to complete -- the session keys come from the primary's TLS
        schedule, so a join booked as primary would key the session
        from the wrong handshake and every record would be rejected.
        ``role_step(conn)`` is the part that differs per role (client:
        arm the automatic User Timeout; server: announce the session or
        replenish join credentials); it runs once the connection can
        carry records.
        """
        if conn.index is None:
            self._register(conn)
        conn.alive = True
        # The client Finished leaves before any record queues behind it.
        self._flush_tls(conn)
        self._emit("session", "conn_established", {
            "conn": conn.conn_id, "index": conn.index,
            "local": str(conn.tcp.local), "remote": str(conn.tcp.remote),
        })
        if conn.is_primary:
            if conn.tls is not None:
                self._setup_keys(conn.tls.schedule, conn.tls.cipher_cls)
            self._install_control_stream(conn)
            self.ready = True
            self._emit("session", "ready", {"tcpls": self.tcpls_enabled,
                                            "fallback": self.fell_back})
            if role_step is not None:
                role_step(conn)
            self.emit(SessionEvent.READY, self)
        else:
            self._install_control_stream(conn)
            if role_step is not None:
                role_step(conn)
            self._emit("session", "join", {"conn": conn.conn_id,
                                           "index": conn.index})
            self._resolve_pending_failover(conn)
            self.emit(SessionEvent.JOIN, conn)
        # Records from here on are the session's, not the TLS machine's.
        if conn.tls is not None:
            self._takeover_tls(conn)
        self.emit(SessionEvent.CONN_ESTABLISHED, conn)
        self._pump()

    # ------------------------------------------------------------------
    # Public stream / group API
    # ------------------------------------------------------------------

    def create_stream(self, conn):
        """Open a new application stream attached to ``conn``."""
        self._require_ready()
        stream_id = self._next_stream_id
        self._next_stream_id += 2
        stream = self._make_stream(stream_id, conn)
        self._send_control(
            conn, rec.encode_stream_attach(stream_id, 0, 0)
        )
        return stream

    def create_coupled_group(self, conns, scheduler=None):
        """Open a coupled group with one stream per connection
        (bandwidth aggregation, Sec. 3.3.3)."""
        self._require_ready()
        group_id = self._next_group_id
        self._next_group_id += 2
        group = CoupledGroup(self, group_id, scheduler or
                             RoundRobinScheduler())
        self.groups[group_id] = group
        for conn in conns:
            self.add_group_stream(group, conn)
        return group

    def add_group_stream(self, group, conn):
        """Attach the group to one more connection (e.g. a path enabled
        mid-transfer, as in the Fig. 11 experiment)."""
        stream_id = self._next_stream_id
        self._next_stream_id += 2
        stream = self._make_stream(stream_id, conn,
                                   coupled_group=group.group_id)
        group.add_stream(stream)
        self._send_control(
            conn, rec.encode_stream_attach(stream_id, 0, group.group_id)
        )
        self._pump()
        return stream

    def remove_group_stream(self, group, stream):
        """Detach a group member (migration away from its path)."""
        group.remove_stream(stream)
        if stream.connection is not None and stream.connection.writable():
            self._send_control(
                stream.connection,
                rec.encode_stream_detach(stream.stream_id,
                                         stream.ctx_send.send_seq),
            )
        self._pump()

    def steer_stream(self, stream, new_conn):
        """Move an (uncoupled) stream to another TCP connection.

        Not-yet-sealed data follows immediately; records already queued
        in the old connection's TCP buffer drain where they are.
        """
        old_conn = stream.connection
        if old_conn is new_conn:
            return
        if old_conn is not None and old_conn.writable():
            self._send_control(
                old_conn,
                rec.encode_stream_detach(stream.stream_id,
                                         stream.ctx_send.send_seq),
            )
        self._attach(stream, new_conn)
        self._emit("session", "stream_steered", {
            "stream": stream.stream_id,
            "from": old_conn.conn_id if old_conn is not None else None,
            "to": new_conn.conn_id,
        })
        self._send_control(
            new_conn,
            rec.encode_stream_attach(stream.stream_id,
                                     stream.ctx_send.send_seq,
                                     stream.coupled_group or 0),
        )
        self._pump()

    def buffered_rx_bytes(self):
        """Receive-side bytes this session holds for the application:
        delivered-but-unread stream/group buffers plus out-of-order
        records parked in the reorder heaps.  The multi-session driver
        (:mod:`repro.core.drivers.multi`) reads this against a
        per-session memory budget to decide when to stop reading the
        session's sockets."""
        total = 0
        for stream in self.streams.values():
            total += len(stream.recv_buffer)
            total += stream.recv_reorder.buffered_bytes
        for group in self.groups.values():
            total += len(group.recv_buffer)
            total += group.reorder.buffered_bytes
        return total

    def close(self):
        """Gracefully close every connection (FIN after buffered data).

        Teardown, not flush-and-wait: record bytes the transports could
        not accept yet are dropped along with the session's readiness,
        so a retiring multi-session server releases the fds promptly.
        """
        for conn in list(self.conns):
            if conn.pending_out:
                self._drain(conn)
                conn.pending_out.clear()
                conn.pending_out_bytes = 0
            if not conn.failed and conn.tcp.is_open():
                conn.tcp.close()
            conn.local_closed = True
            conn.alive = False
        self.ready = False
        self._emit("session", "closed", {"conns": len(self.conns)})

    def connections(self):
        """Live view of the session's connections (paper: TCPLS exposes
        the underlying TCP connections to the application)."""
        return list(self.conns)

    def alive_connections(self):
        return [c for c in self.conns if c.usable()]

    # ------------------------------------------------------------------
    # Failover / options / probing / eBPF
    # ------------------------------------------------------------------

    def enable_failover(self):
        """Turn on record-level ACKs and replay (both directions)."""
        self._require_ready()
        if self.failover_enabled:
            return
        self.failover_enabled = True
        self._emit("session", "failover_enabled", {})
        primary = self._first_writable()
        if primary is not None:
            self._send_control(
                primary, rec.encode_control(rec.CTRL_ENABLE_FAILOVER))

    def set_user_timeout(self, conn, seconds):
        """Ship the User Timeout inside an encrypted record so the
        *peer* arms it (Sec. 4.2), and arm it locally too.

        Unlike the 15-bit seconds-or-minutes wire option of RFC 5482,
        the record-conveyed variant is not space-constrained (Sec. 3.1)
        and carries milliseconds -- the paper's experiments use 250 ms.
        """
        self.send_tcp_option(conn, rec.OPT_USER_TIMEOUT,
                             rec.encode_user_timeout(seconds))
        conn.tcp.set_user_timeout(seconds)

    def ping(self, conn, payload=b""):
        """Application path probe (echo request)."""
        self._send_typed(conn, rec.RECORD_TYPE_PING, payload)

    def send_tcp_option(self, conn, kind, data=b""):
        """Convey an arbitrary TCP option inside an encrypted record
        (Sec. 3.1): reliable, unbounded by the 40-byte header limit, and
        invisible to middleboxes.  The peer reports it as
        ``SessionEvent.TCP_OPTION`` with ``(conn, kind, data)``."""
        self._send_typed(conn, rec.RECORD_TYPE_TCP_OPTION,
                         rec.encode_tcp_option(kind, data))

    def announce_address(self, address):
        """Advertise one more local address to the peer mid-session
        (Sec. 3.3.2: "The server can later ... update its list of
        addresses")."""
        target = self._first_writable()
        if target is not None:
            self._send_control(
                target, rec.encode_addresses(rec.CTRL_ADD_ADDRESS, [address]))

    def withdraw_address(self, address):
        """Tell the peer an address is no longer usable."""
        target = self._first_writable()
        if target is not None:
            self._send_control(target, rec.encode_addresses(
                rec.CTRL_REMOVE_ADDRESS, [address]))

    def request_peer_tcp_info(self, conn, callback):
        """Retrieve the *remote* endpoint's ``tcp_info`` for this
        connection over the secure channel (Sec. 3.3.3: "retrieve
        information from the remote host, e.g. ... the remote host's
        tcp_info").  ``callback(conn, info_dict)`` fires on response."""
        self._tcpinfo_callbacks.setdefault(conn.conn_id, []).append(
            callback)
        self._send_control(conn, rec.encode_control(rec.CTRL_TCPINFO_REQUEST))

    def send_ebpf_program(self, conn, bytecode, program_id=1):
        """Chunk congestion-controller bytecode over the session
        (Sec. 4.4); the peer verifies and attaches it."""
        chunk_size = self.record_payload - 64
        chunks = [bytecode[i:i + chunk_size]
                  for i in range(0, len(bytecode), chunk_size)] or [b""]
        for index, chunk in enumerate(chunks):
            payload = rec.encode_ebpf_chunk(program_id, index, len(chunks),
                                            chunk)
            self._send_typed(conn, rec.RECORD_TYPE_EBPF, payload)

    # ------------------------------------------------------------------
    # Output path
    # ------------------------------------------------------------------

    def _require_ready(self):
        if not self.ready:
            raise SessionNotReadyError()

    def _first_writable(self):
        for conn in self.conns:
            if conn.usable():
                return conn
        return None

    def _send_control(self, conn, payload):
        self._send_typed(conn, rec.RECORD_TYPE_CONTROL, payload)

    def _send_typed(self, conn, record_type, payload):
        """Seal one record on ``conn``'s control stream (never stored
        for replay: each connection's control stream is its own)."""
        stream = conn.control_stream
        seq = stream.ctx_send.send_seq
        inner = rec.encode_inner(record_type, payload)
        wire = stream.ctx_send.seal(inner)
        self.stats["records_sent"] += 1
        self.stats["bytes_sealed"] += len(inner)
        self._emit("tls", "record_sealed", {
            "conn": conn.conn_id, "stream": stream.stream_id,
            "seq": seq, "type": record_type, "length": len(wire),
        })
        self._conn_write(conn, wire)
        return seq

    def _conn_write(self, conn, data):
        conn.pending_out.append(data)
        conn.pending_out_bytes += len(data)
        self._drain(conn)

    def _drain(self, conn):
        if not conn.writable():
            return
        while conn.pending_out:
            head = conn.pending_out[0]
            if conn.tcp.send_space() < len(head):
                break
            conn.tcp.send(head)
            conn.pending_out.popleft()
            conn.pending_out_bytes -= len(head)

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
                     + self.record_payload)
        return max(target - backlog, 0)

    def _pump(self):
        """Seal pending application bytes into records wherever there is
        room.  Called on sends, ACK progress and topology changes."""
        if not self.ready:
            return
        progressed = True
        while progressed:
            progressed = False
            for group in self.groups.values():
                if group.pending or (group.fin_pending
                                     and not group.fin_sent):
                    progressed |= self._pump_group(group)
            for stream in self.streams.values():
                conn = stream.connection
                if (stream.pending or (stream.fin_pending
                                       and not stream.fin_sent)) \
                        and stream.coupled_group is None \
                        and conn is not None \
                        and conn.control_stream is not stream:
                    progressed |= self._pump_stream(stream)

    def _is_control(self, stream):
        return (stream.connection is not None
                and stream.connection.control_stream is stream)

    def _chunk_size(self, control_len):
        return self.record_payload - control_len - 2

    def _pump_stream(self, stream):
        """Seal pending stream bytes into records, a batch at a time.

        The outer loop recomputes the true connection budget; the inner
        loop seals against a conservative local copy (decremented by
        each record's full wire length, i.e. assuming nothing leaves the
        TCP buffer meanwhile), so a batch never seals a record the
        record-at-a-time pump would not have.  Within a batch the
        framing, AEAD sealing (:meth:`seal_many`), unacked bookkeeping
        and transport drain each run as one pass instead of per record
        -- same records, same wire bytes, one ``_drain`` per batch.
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
            ctx = stream.ctx_send
            record_overhead = ctx.cipher.tag_size + RECORD_HEADER_SIZE
            pending = stream.pending
            remaining = len(pending)
            fin_left = stream.fin_pending and not stream.fin_sent
            inners = []
            offset = 0
            # Zero-copy: hand the framer views of the app buffer; the
            # gather in encode_inner is the send path's only copy.  The
            # views must be released before the bytearray can shrink.
            view = memoryview(pending)
            try:
                while budget > 0 and (remaining or fin_left):
                    last = fin_left and remaining <= self._chunk_size(
                        rec.STREAM_CONTROL_SIZE)
                    flags = rec.FLAG_FIN if last else 0
                    control = rec.encode_stream_control(flags)
                    size = self._chunk_size(len(control))
                    chunk = view[offset:offset + size]
                    try:
                        inners.append(rec.encode_inner(
                            rec.RECORD_TYPE_STREAM_DATA, chunk, control))
                    finally:
                        chunk.release()
                    consumed = min(size, remaining)
                    offset += consumed
                    remaining -= consumed
                    budget -= len(inners[-1]) + record_overhead
                    if last:
                        fin_left = False
                        stream.fin_sent = True
            finally:
                view.release()
            del pending[:offset]
            self._seal_batch(conn, stream, inners)
            sent = True
        return sent

    def _seal_batch(self, conn, stream, inners):
        """Seal a pump batch of STREAM_DATA records on ``stream``
        (:meth:`seal_many`) and book it: unacked replay copies, stats,
        per-record trace events, one queue append pass and one
        transport drain.  Streams and coupled groups both send here."""
        first_seq = stream.ctx_send.send_seq
        wires = stream.ctx_send.seal_many(inners)
        if self.failover_enabled:
            unacked = stream.unacked
            seq = first_seq
            for wire in wires:
                unacked.append((seq, wire))
                seq += 1
        self.stats["records_sent"] += len(wires)
        self.stats["bytes_sealed"] += sum(len(i) for i in inners)
        if self.bus.wants("tls"):
            seq = first_seq
            for wire in wires:
                self._emit("tls", "record_sealed", {
                    "conn": conn.conn_id, "stream": stream.stream_id,
                    "seq": seq, "type": rec.RECORD_TYPE_STREAM_DATA,
                    "length": len(wire),
                })
                seq += 1
        pending_out = conn.pending_out
        total = 0
        for wire in wires:
            pending_out.append(wire)
            total += len(wire)
        conn.pending_out_bytes += total
        self._drain(conn)

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
            group=group, session=self, now=self.clock.now))]

    def _pump_group(self, group):
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
            if self.bus.wants("scheduler"):
                self._emit("scheduler", "pick", {
                    "group": group.group_id,
                    "scheduler": getattr(group.scheduler, "name", "custom"),
                    "streams": [t.stream_id for t in targets],
                    "candidates": len(candidates),
                })
            last = (
                group.fin_pending
                and len(group.pending)
                <= self._chunk_size(rec.COUPLED_CONTROL_SIZE)
            )
            control = group.next_control(fin=last)
            size = self._chunk_size(len(control))
            chunk = memoryview(group.pending)[:size]
            try:
                inner = rec.encode_inner(rec.RECORD_TYPE_STREAM_DATA, chunk,
                                         control)
            finally:
                chunk.release()
            del group.pending[:size]
            for stream in targets:
                self._seal_batch(stream.connection, stream, [inner])
            if last:
                group.fin_sent = True
            sent = True
        return sent

    # ------------------------------------------------------------------
    # Input path
    # ------------------------------------------------------------------

    def _on_tcp_data(self, conn):
        """Pull pending bytes from the transport and feed them in (the
        driver-wired ``on_data`` path)."""
        self.bytes_received(conn, conn.tcp.recv())

    def _feed_handshake(self, conn, data):
        from repro.tls.endpoint import TlsError
        from repro.tls.record import TlsRecordError

        try:
            conn.tls.feed(data)
        except (TlsError, TlsRecordError) as exc:
            self._abort_conn(conn, "tls:%s" % exc)
            return
        out = conn.tls.data_to_send()
        if out:
            self._conn_write(conn, out)

    def _flush_tls(self, conn):
        if conn.tls is not None:
            out = conn.tls.data_to_send()
            if out:
                self._conn_write(conn, out)

    def _takeover_tls(self, conn):
        """Route post-handshake records through the session and migrate
        any partial record buffered in the TLS endpoint's reassembler."""
        conn.tls.takeover = (
            lambda records: self._process_records(conn, records)
        )
        leftover = bytes(conn.tls.reassembler._buffer)
        conn.tls.reassembler._buffer.clear()
        # Also cuts the records a parked join held back (see the server
        # engine), hence the feed even without a leftover.
        self._process_records(conn, conn.reassembler.feed(leftover))

    # -- demultiplexing ----------------------------------------------------

    def _attach(self, stream, conn):
        """Move ``stream`` to ``conn``; every cached trial order that
        ranked it by its old connection is now stale."""
        stream.connection = conn
        self._demux_epoch += 1

    def _demux_candidates(self, conn):
        """Streams in tag-trial order for a record arriving on ``conn``:
        the last stream seen there, its control stream, the other
        streams attached to it, then everything else.  Cached until the
        stream set, an attachment or ``conn.last_stream`` changes."""
        epoch, last, order = conn.demux_order
        if epoch == self._demux_epoch and last is conn.last_stream:
            return order
        last = conn.last_stream
        head = [s for s in (last, conn.control_stream) if s is not None]
        if len(head) == 2 and head[0] is head[1]:
            del head[1]
        streams = [s for s in self.streams.values() if s not in head]
        order = tuple(head
                      + [s for s in streams if s.connection is conn]
                      + [s for s in streams if s.connection is not conn])
        conn.demux_order = (self._demux_epoch, last, order)
        return order

    def _process_records(self, conn, records):
        """The complete records of one read, strictly in order.

        A cipher with a lane tier makes the keystreams of a run of
        records for little more than one (``Aead.pads``), but a receiver
        learns a record's nonce only by tag trial.  So it guesses: once
        a record has been accepted on a data stream, the records after
        it in the read are taken to continue that stream at the next
        sequences, and their pads are made in one pass.  A guess rides
        in its record's trial and serves only the candidate whose nonce
        is the guessed one; the record is tried, authenticated and
        dispatched exactly as without it.  A record accepted anywhere
        else drops the guesses left (at most one pass of lane work) and
        starts over from where it was accepted; a rejected record says
        nothing about its neighbours, so theirs stand.

        A malformed record -- its row's decoder raised
        :class:`TcplsProtocolError` -- fails the connection, and the
        rest of the read is dropped with it.
        """
        try:
            cipher = self._recv_key
            per_pass = len(records) > 1 and cipher.pads_per_pass()
            if not per_pass:
                for record_bytes in records:
                    self._process_record(conn, record_bytes)
                return
            overhead = RECORD_HEADER_SIZE + cipher.tag_size
            # record index -> ((stream, seq), (nonce, pad))
            guesses = {}
            for index, record_bytes in enumerate(records):
                guessed, ahead = guesses.pop(index, (None, None))
                accepted = self._process_record(conn, record_bytes, ahead)
                if accepted is None:
                    continue
                if accepted != guessed:
                    guesses.clear()
                stream, seq = accepted
                rest = records[index + 1:index + 1 + per_pass]
                if not rest or index + 1 in guesses \
                        or self._is_control(stream):
                    continue
                pads = stream.ctx_recv.pads_ahead(
                    seq + 1, [max(len(r) - overhead, 0) for r in rest])
                for offset, ahead in enumerate(pads, 1):
                    guesses[index + offset] = ((stream, seq + offset),
                                               ahead)
        except TcplsProtocolError:
            conn.tcp.abort()
            self._conn_failed(conn, "protocol")

    def _process_record(self, conn, record_bytes, ahead=None):
        """Find the record's stream by tag trial and dispatch it;
        returns the ``(stream, seq)`` it was accepted at, or ``None``."""
        conn.records_received += 1
        stats = self.stats
        stats["records_received"] += 1
        candidates = self._demux_candidates(conn)
        # One MAC pass over the record; every candidate below only
        # finishes the tag under its own nonce.
        trial = prepare_record(self._recv_key, record_bytes, ahead)
        # Fast pass: each candidate's single most likely sequence.
        for position, stream in enumerate(candidates):
            seq = stream.primary_trial_seq()
            stats["tag_trials"] += 1
            if stream.ctx_recv.verify_at(trial, seq):
                if position > 0:
                    stats["demux_fallbacks"] += 1
                self._accept_record(conn, stream, seq, trial,
                                    len(record_bytes))
                return stream, seq
        # Slow pass: bounded sequence windows (steering / replay).
        for stream in candidates:
            for seq in stream.trial_seqs(self.trial_window)[1:]:
                stats["tag_trials"] += 1
                if stream.ctx_recv.verify_at(trial, seq):
                    stats["demux_fallbacks"] += 1
                    self._accept_record(conn, stream, seq, trial,
                                        len(record_bytes))
                    return stream, seq
        # Undecryptable: duplicate failover replay or forgery.  A
        # replayed duplicate means one of our ACKs was lost with the
        # dead connection -- re-acknowledge everything (rate-limited)
        # so the peer prunes its replay buffer and stops.
        stats["demux_drops"] += 1
        self._emit("tls", "record_rejected", {
            "conn": conn.conn_id, "length": len(record_bytes),
        })
        if self.failover_enabled and \
                self.clock.now - self._last_ack_all >= 0.05:
            self._last_ack_all = self.clock.now
            data_streams = [
                s for s in self.streams.values()
                if not self._is_control(s) and s.recv_decrypted
            ]
            if data_streams:
                self._send_ack(conn, data_streams)
        return None

    def _accept_record(self, conn, stream, seq, trial, wire_length):
        """``trial`` has just verified at ``(stream, seq)``: decrypt it
        (no second MAC pass) and dispatch it to its :attr:`ROWS` row."""
        plaintext = stream.ctx_recv.open_verified(trial, seq)
        stream.mark_decrypted(seq)
        self.stats["bytes_opened"] += len(plaintext)
        conn.last_stream = stream
        inner = rec.decode_inner(plaintext)
        self._emit("tls", "record_opened", {
            "conn": conn.conn_id, "stream": stream.stream_id,
            "seq": seq, "type": inner.record_type,
            "length": wire_length,
        })
        rows = self.ROWS
        if inner.record_type in rows:
            rows[inner.record_type](self, conn, stream, seq, inner)

    # -- the control plane: one row per record type and CONTROL opcode ------
    #
    # Each row decodes its payload with its codec in :mod:`repro.core.record`
    # (which raises TcplsProtocolError on malformed bytes) and acts on it.

    def _on_stream_data(self, conn, stream, seq, inner):
        flags, coupled_seq = rec.decode_stream_control(inner.control)
        if coupled_seq is not None:
            group = self._ensure_group(stream.coupled_group or 0)
            if flags & rec.FLAG_FIN:
                group.fin_received = True
                group.fin_seq = coupled_seq
            released = group.reorder.push(coupled_seq, inner.payload)
            if released:
                for payload in released:
                    group.recv_buffer += payload
                    group.bytes_delivered += len(payload)
                for handler in self._handlers[_GROUP_DATA]:
                    handler(group)
        else:
            if flags & rec.FLAG_FIN:
                stream.fin_received = True
            released = stream.recv_reorder.push(seq, inner.payload)
            if released:
                for payload in released:
                    stream.recv_buffer += payload
                stream.records_delivered += len(released)
                stream.last_delivery = self.clock.now
                for handler in self._handlers[_STREAM_DATA]:
                    handler(stream)
        self._maybe_ack(conn, stream, len(inner.payload),
                        fin=bool(flags & rec.FLAG_FIN))

    def _maybe_ack(self, conn, stream, payload_len, fin=False):
        if not self.failover_enabled:
            return
        stream.records_since_ack += 1
        stream.bytes_since_ack += payload_len
        # A FIN record acks immediately -- covering every data stream,
        # since a coupled transfer's FIN rides only one member stream --
        # so the sender's replay buffer empties when the transfer ends.
        if fin:
            data_streams = [
                s for s in self.streams.values()
                if not self._is_control(s) and s.recv_decrypted
            ]
            self._send_ack(conn, data_streams or [stream])
            for acked in data_streams:
                acked.records_since_ack = 0
                acked.bytes_since_ack = 0
            return
        if (stream.records_since_ack >= self.ack_interval
                or stream.bytes_since_ack >= self.ack_interval *
                self.record_payload):
            self._send_ack(conn, [stream])
            stream.records_since_ack = 0
            stream.bytes_since_ack = 0

    def _send_ack(self, conn, streams):
        target = conn if conn.usable() else self._first_writable()
        if target is None:
            return
        entries = [s.ack_state() for s in streams]
        self._send_typed(target, rec.RECORD_TYPE_ACK,
                         rec.encode_ack(entries))
        self.stats["acks_sent"] += 1

    def _ensure_group(self, group_id):
        group = self.groups.get(group_id)
        if group is None:
            group = CoupledGroup(self, group_id, RoundRobinScheduler())
            self.groups[group_id] = group
        return group

    def _on_appdata(self, conn, stream, seq, inner):
        stream.recv_buffer += inner.payload
        for handler in self._handlers[_STREAM_DATA]:
            handler(stream)

    def _on_ack(self, conn, stream, seq, inner):
        for stream_id, next_seq in rec.decode_ack(inner.payload):
            target = self.streams.get(stream_id)
            if target is not None:
                target.prune_unacked(next_seq)

    def _on_tcp_option(self, conn, stream, seq, inner):
        kind, data = rec.decode_tcp_option(inner.payload)
        if kind == rec.OPT_USER_TIMEOUT:
            conn.tcp.set_user_timeout(rec.decode_user_timeout(data))
        self.emit(SessionEvent.TCP_OPTION, conn, kind, data)

    def _on_ebpf_chunk(self, conn, stream, seq, inner):
        """Collect a program's chunks (keyed with their total, so a
        complete set is every index below it) and ask the transport to
        verify and attach it (drivers without pluggable CC decline)."""
        program_id, index, total, data = rec.decode_ebpf_chunk(inner.payload)
        chunks = self._ebpf_chunks.setdefault((program_id, total), {})
        chunks[index] = data
        if len(chunks) < total:
            return
        del self._ebpf_chunks[program_id, total]
        attached = conn.tcp.attach_ebpf_congestion(
            b"".join(chunks[i] for i in range(total)),
            program_name="prog%d" % program_id,
        )
        if attached:
            self.emit(SessionEvent.EBPF_ATTACHED, conn, program_id)

    def _on_control(self, conn, stream, seq, inner):
        handler = self.ROWS.get((_CONTROL, rec.decode_control(inner.payload)))
        if handler is not None:
            handler(self, conn, inner.payload)

    def _on_ping(self, conn, stream, seq, inner):
        self._send_typed(conn, rec.RECORD_TYPE_PONG, inner.payload)

    def _on_pong(self, conn, stream, seq, inner):
        self.emit(SessionEvent.PONG, conn, inner.payload)

    def _on_stream_attach(self, conn, payload):
        stream_id, _from_seq, group_id = rec.decode_stream_attach(payload)
        stream = self.streams.get(stream_id)
        if stream is not None:
            self._attach(stream, conn)
            return
        stream = self._make_stream(stream_id, conn,
                                   coupled_group=group_id or None)
        if group_id:
            group = self._ensure_group(group_id)
            if stream not in group.streams:
                group.streams.append(stream)
        self.emit(SessionEvent.STREAM_OPEN, stream)

    def _on_enable_failover(self, conn, payload):
        self.failover_enabled = True

    def _on_new_cookies(self, conn, payload):
        self.cookies.extend(rec.decode_credentials(payload))

    def _on_new_tokens(self, conn, payload):
        self.tokens.extend(rec.decode_credentials(payload))

    def _on_add_address(self, conn, payload):
        for address in rec.decode_addresses(payload):
            if address not in self.peer_addresses:
                self.peer_addresses.append(address)

    def _on_remove_address(self, conn, payload):
        for address in rec.decode_addresses(payload):
            if address in self.peer_addresses:
                self.peer_addresses.remove(address)

    def _on_tcpinfo_request(self, conn, payload):
        self._send_control(conn,
                           rec.encode_tcpinfo_response(conn.tcp_info()))

    def _on_tcpinfo_response(self, conn, payload):
        info = rec.decode_tcpinfo_response(payload)
        for callback in self._tcpinfo_callbacks.pop(conn.conn_id, []):
            callback(conn, info)

    def _on_sync(self, conn, stream, seq, inner):
        """Peer signalled failover: reattach our view of its streams to
        this connection, move our own streams off the dead connection,
        and replay our unacked records (Fig. 4)."""
        failed_conn_id, entries = rec.decode_sync(inner.payload)
        self._emit("recovery", "sync_received", {
            "conn": conn.conn_id, "failed": failed_conn_id,
            "streams": len(entries),
        })
        failed = next(
            (c for c in self.conns if c.conn_id == failed_conn_id
             and c is not conn),
            None,
        )
        if failed is not None:
            if not failed.failed:
                failed.pending_out.clear()
                failed.pending_out_bytes = 0
                self._abort_conn(failed, "sync")
        for stream_id, _resume_seq in entries:
            stream = self.streams.get(stream_id)
            if stream is not None:
                self._attach(stream, conn)
        if failed is not None:
            for stream in self.streams.values():
                if stream.connection is failed and \
                        not self._is_control(stream):
                    self._attach(stream, conn)
            self._pending_failover = [
                c for c in self._pending_failover if c is not failed
            ]
        self._replay_unacked(conn)
        self._pump()

    #: the control plane (record.py's table): a decrypted record goes to
    #: its type's row; a CONTROL record to its ``(CONTROL, opcode)`` row.
    #: Anything else -- an unknown type or opcode, STREAM_DETACH -- is
    #: ignored.
    ROWS = {
        rec.RECORD_TYPE_STREAM_DATA: _on_stream_data,
        rec.RECORD_TYPE_APPDATA: _on_appdata,
        rec.RECORD_TYPE_ACK: _on_ack,
        rec.RECORD_TYPE_SYNC: _on_sync,
        rec.RECORD_TYPE_TCP_OPTION: _on_tcp_option,
        rec.RECORD_TYPE_EBPF: _on_ebpf_chunk,
        rec.RECORD_TYPE_CONTROL: _on_control,
        rec.RECORD_TYPE_PING: _on_ping,
        rec.RECORD_TYPE_PONG: _on_pong,
        (_CONTROL, rec.CTRL_NEW_COOKIES): _on_new_cookies,
        (_CONTROL, rec.CTRL_ADD_ADDRESS): _on_add_address,
        (_CONTROL, rec.CTRL_REMOVE_ADDRESS): _on_remove_address,
        (_CONTROL, rec.CTRL_STREAM_ATTACH): _on_stream_attach,
        (_CONTROL, rec.CTRL_ENABLE_FAILOVER): _on_enable_failover,
        (_CONTROL, rec.CTRL_TCPINFO_REQUEST): _on_tcpinfo_request,
        (_CONTROL, rec.CTRL_TCPINFO_RESPONSE): _on_tcpinfo_response,
        (_CONTROL, rec.CTRL_NEW_TOKENS): _on_new_tokens,
    }

    # ------------------------------------------------------------------
    # Failover engine (Sec. 3.3.2, Fig. 4)
    # ------------------------------------------------------------------

    def _wire_tcp_callbacks(self, conn):
        conn.tcp.set_callbacks(
            on_data=lambda _c: self._on_tcp_data(conn),
            on_reset=lambda _c: self.conn_failed(conn, "rst"),
            on_close=lambda _c: self.conn_closed(conn),
            on_user_timeout=lambda _c: self.user_timeout_fired(conn),
            on_send_space=lambda _c: self.conn_writable(conn),
        )

    def _on_user_timeout(self, conn):
        """UTO fired: fail over only if a transfer actually hangs on
        this connection; a merely idle session re-arms the timer."""
        if self._has_pending_transfer(conn):
            self._conn_failed(conn, "uto")
        elif conn.tcp.user_timeout is not None:
            conn.tcp.set_user_timeout(conn.tcp.user_timeout)

    def _has_pending_transfer(self, conn):
        """Is this connection carrying an unfinished transfer?"""
        for stream in self.streams.values():
            if self._is_control(stream) or stream.connection is not conn:
                continue
            if (stream.pending or stream.unacked
                    or (stream.fin_pending and not stream.fin_sent)):
                return True
            # Inbound stream mid-transfer: recent data, no FIN yet.
            if stream.recv_decrypted and not stream.fin_received and \
                    stream.coupled_group is None and \
                    self.clock.now - stream.last_delivery < 2.0:
                return True
        for group in self.groups.values():
            if not any(s.connection is conn for s in group.streams):
                continue
            if group.pending or (group.fin_pending and not group.fin_sent):
                return True
            if group.bytes_delivered and not group.complete:
                return True
        return False

    def _conn_closed(self, conn):
        if conn.failed or not self.ready:
            return
        has_unacked = any(
            s.unacked for s in self.streams.values()
            if s.connection is conn
        )
        pending = conn.pending_out or conn.tcp.unsent_bytes()
        if self.failover_enabled and (has_unacked or pending):
            self._conn_failed(conn, "fin")
        else:
            conn.alive = False
            self.emit_perf_totals()

    def _conn_failed(self, conn, reason):
        if conn.failed:
            return
        conn.failed = True
        conn.alive = False
        self._emit("session", "conn_failed",
                   {"conn": conn.conn_id, "reason": reason})
        self.emit_perf_totals()
        self.emit(SessionEvent.CONN_FAILED, conn, reason)
        if not self.failover_enabled or not self.ready:
            return
        self.stats["failovers"] += 1
        target = self._failover_target(conn)
        if target is None:
            self._pending_failover.append(conn)
            self._emit("recovery", "failover_pending",
                       {"conn": conn.conn_id, "reason": reason})
            self._on_no_failover_target(conn)
            return
        self._do_failover(conn, target)

    def _abort_conn(self, conn, reason):
        """Fail ``conn`` outright, without failover: a handshake that
        broke, a join the server refused, a connection the peer's SYNC
        declared dead.  ``abort()`` fires no transport callback, so the
        bus event and the handlers are the only teardown signal
        observers (e.g. a connection table) get."""
        conn.failed = True
        conn.alive = False
        conn.tcp.abort()
        self._emit("session", "conn_failed",
                   {"conn": conn.conn_id, "reason": reason})
        self.emit(SessionEvent.CONN_FAILED, conn, reason)

    def _on_no_failover_target(self, conn):
        """Hook: the client overrides this to open + join a new path."""

    def _resolve_pending_failover(self, new_conn):
        """A connection became usable; complete any stalled failovers."""
        pending, self._pending_failover = self._pending_failover, []
        for failed in pending:
            self._do_failover(failed, new_conn)

    def _failover_target(self, failed_conn):
        """Prefer a connection on different addresses than the failed one
        (Sec. 4.2)."""
        alive = [c for c in self.conns if c is not failed_conn
                 and c.usable()]
        if not alive:
            return None
        different = [
            c for c in alive
            if c.tcp.local.addr != failed_conn.tcp.local.addr
            and c.tcp.remote.addr != failed_conn.tcp.remote.addr
        ]
        return (different or alive)[0]

    def _do_failover(self, failed_conn, target):
        moved = []
        for stream in self.streams.values():
            if stream.connection is failed_conn and \
                    not self._is_control(stream):
                self._attach(stream, target)
                moved.append(stream)
        entries = []
        for stream in moved:
            resume = stream.unacked[0][0] if stream.unacked else \
                stream.ctx_send.send_seq
            entries.append((stream.stream_id, resume))
        self._emit("recovery", "failover", {
            "from": failed_conn.conn_id, "to": target.conn_id,
            "streams": len(moved),
        })
        self._send_typed(
            target, rec.RECORD_TYPE_SYNC,
            rec.encode_sync(failed_conn.conn_id, entries),
        )
        self.stats["syncs_sent"] += 1
        self._replay_unacked(target)
        # Anything sealed but stuck in the dead TCP connection's buffer
        # is covered by the unacked store; drop the queue.
        failed_conn.pending_out.clear()
        failed_conn.pending_out_bytes = 0
        self.emit(SessionEvent.FAILOVER, failed_conn, target)
        self._pump()

    def _replay_unacked(self, target):
        """Retransmit stored ciphertexts as-is (per-stream contexts make
        the bytes connection-independent)."""
        replayed = 0
        for stream in self.streams.values():
            if stream.connection is target and stream.unacked:
                for _seq, wire in stream.unacked:
                    self._conn_write(target, wire)
                    self.stats["records_replayed"] += 1
                    replayed += 1
        if replayed:
            self._emit("recovery", "replay",
                       {"conn": target.conn_id, "records": replayed})
