"""The sans-I/O TCPLS session engine: the composition root.

A :class:`TcplsEngine` owns one or more transports (paths), the streams
and coupled groups multiplexed over them, and the control machinery of
Secs. 3-4 of the paper.  The ClientHello and its answer are per role
(:mod:`~repro.core.engine.client`, :mod:`~repro.core.engine.server`).
Here live the input events, :meth:`TcplsEngine.attach_conn`, the
receive path, :attr:`TcplsEngine.ROWS` and the public API; the send
pump (``engine.pump``, :mod:`~repro.core.engine.pump`), the tag-trial
demultiplexer (``engine.demux``, :mod:`~repro.core.engine.demux`) and
record-level failover (``engine.failover``,
:mod:`~repro.core.engine.failover`) do the rest.  Effects leave only
through the :mod:`~repro.core.engine.interfaces` contracts, never
through :mod:`repro.net` or :mod:`repro.tcp`.
"""

from repro.core import record as rec
from repro.core.crypto_context import prepare_record, prepare_records
from repro.core.errors import SessionNotReadyError, TcplsProtocolError
from repro.core.engine.connection import ConnectionState
from repro.core.engine.demux import Demux
from repro.core.engine.ebpf_chunks import ProgramChunks
from repro.core.engine.events import EventSource, SessionEvent, slot
from repro.core.engine.failover import (Failover, on_ack,
                                        on_enable_failover, on_sync)
from repro.core.engine.policy import RoundRobinScheduler
from repro.core.engine.pump import Pump
from repro.core.stream import CoupledGroup, TcplsStream, control_stream_id
from repro.tls.record import TlsError

#: CONTROL opcodes' rows in :attr:`TcplsEngine.ROWS` are keyed
#: ``(_CONTROL, opcode)``
_CONTROL = rec.RECORD_TYPE_CONTROL

#: the rows whose payload stays a view of the read's chunk until it is
#: copied into its stream's buffer; every other row decodes bytes
_VIEW_ROWS = (rec.RECORD_TYPE_STREAM_DATA, rec.RECORD_TYPE_APPDATA)
#: what a failover replays, so what the demux's replay index keeps
_STREAM_DATA_TYPE = rec.RECORD_TYPE_STREAM_DATA

#: the events emitted per record or per ACK, as module globals: reading
#: one costs a fraction of an enum class attribute
_STREAM_DATA = SessionEvent.STREAM_DATA
_GROUP_DATA = SessionEvent.GROUP_DATA
_WRITABLE = SessionEvent.WRITABLE


class TcplsEngine(EventSource):
    """Shared session logic for both endpoints, over any driver."""

    #: sequences tried per stream before a record is declared
    #: undecryptable (the slow pass of the tag-trial demux), and the
    #: records per stream its replay index keeps
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

        self._ebpf_chunks = ProgramChunks()
        self._tcpinfo_callbacks = {}
        #: the send side: sealing, booking, connection queues
        self.pump = Pump(self)
        #: which stream and sequence a received record belongs to
        self.demux = Demux(self)
        #: record ACKs, the failure body, SYNC and replay
        self.failover = Failover(self)
        #: optional :class:`~repro.core.engine.replay.InputLog`; when
        #: set, every external input event is appended for deterministic
        #: replay (debugging).
        self.input_log = None

        # Statistics (the ablation matrix rows read these).
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
        pump = self.pump
        pump.drain(conn)
        pump.run()
        for handler in self._handlers[_WRITABLE]:
            handler(self)

    def conn_failed(self, conn, reason):
        """Input: the connection died (RST, timeout, driver error)."""
        self._log_input("failed", conn, reason)
        self.failover.fail(conn, reason)

    def conn_closed(self, conn):
        """Input: the peer closed the connection cleanly (FIN)."""
        self._log_input("closed", conn)
        self.failover.peer_closed(conn)

    def user_timeout_fired(self, conn):
        """Input: the armed user timeout elapsed without progress."""
        self._log_input("user_timeout", conn)
        self.failover.timed_out(conn)

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
        self.demux.renew(stream_id)
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

    def _wire_tcp_callbacks(self, conn):
        conn.tcp.set_callbacks(
            on_data=lambda _c: self._on_tcp_data(conn),
            on_reset=lambda _c: self.conn_failed(conn, "rst"),
            on_close=lambda _c: self.conn_closed(conn),
            on_user_timeout=lambda _c: self.user_timeout_fired(conn),
            on_send_space=lambda _c: self.conn_writable(conn),
        )

    def _open_conn(self, tcp, tls=None, conn_id=0):
        """Track a transport this endpoint opened itself."""
        return self._register(ConnectionState(tcp, tls, conn_id))

    def _fall_back(self, conn):
        """Hook: True retries a recoverable failure instead of
        publishing it (the client's plain-TLS retry, Sec. 5.2)."""
        return False

    def _on_no_failover_target(self, conn):
        """Hook: the client overrides this to open + join a new path."""

    def _on_clean_close(self, conn):
        """Hook: the peer closed ``conn`` cleanly and stranded nothing
        (the client overrides this to end its side too)."""

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
            self.failover.resolve(conn)
            self.emit(SessionEvent.JOIN, conn)
        # Records from here on are the session's, not the TLS machine's.
        if conn.tls is not None:
            self._takeover_tls(conn)
        self.emit(SessionEvent.CONN_ESTABLISHED, conn)
        self.pump.run()

    # ------------------------------------------------------------------
    # Public stream / group API
    # ------------------------------------------------------------------

    def create_stream(self, conn):
        """Open a new application stream attached to ``conn``."""
        self._require_ready()
        return self._open_stream(conn)

    def _open_stream(self, conn, group=None):
        """A new stream of ours on ``conn`` (a member of ``group``, if
        given), announced to the peer with a STREAM_ATTACH."""
        stream_id = self._next_stream_id
        self._next_stream_id += 2
        group_id = group.group_id if group is not None else 0
        stream = self._make_stream(stream_id, conn,
                                   coupled_group=group_id or None)
        if group is not None:
            group.add_stream(stream)
        self.pump.send_control(
            conn, rec.encode_stream_attach(stream_id, 0, group_id))
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
        stream = self._open_stream(conn, group)
        self.pump.run()
        return stream

    def remove_group_stream(self, group, stream):
        """Detach a group member (migration away from its path)."""
        group.remove_stream(stream)
        self._send_detach(stream)
        self.pump.run()

    def _send_detach(self, stream):
        """Tell the peer ``stream`` leaves its connection, if that one
        can still send."""
        conn = stream.connection
        if conn is not None and conn.writable():
            self.pump.send_control(conn, rec.encode_stream_detach(
                stream.stream_id, stream.ctx_send.send_seq))

    def steer_stream(self, stream, new_conn):
        """Move an (uncoupled) stream to another TCP connection.

        Not-yet-sealed data follows immediately; records already queued
        in the old connection's TCP buffer drain where they are.
        """
        old_conn = stream.connection
        if old_conn is new_conn:
            return
        self._send_detach(stream)
        self._attach(stream, new_conn)
        self._emit("session", "stream_steered", {
            "stream": stream.stream_id,
            "from": old_conn.conn_id if old_conn is not None else None,
            "to": new_conn.conn_id,
        })
        self.pump.send_control(
            new_conn,
            rec.encode_stream_attach(stream.stream_id,
                                     stream.ctx_send.send_seq,
                                     stream.coupled_group or 0),
        )
        self.pump.run()

    def buffered_rx_bytes(self):
        """Receive-side bytes this session holds for the application:
        delivered-but-unread stream/group buffers plus out-of-order
        records parked in the reorder heaps: what the server engine's
        receive budget is checked against."""
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
                self.pump.drain(conn)
                self.pump.drop(conn)
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
            self.pump.send_control(
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
        self.pump.send_typed(conn, rec.RECORD_TYPE_PING, payload)

    def send_tcp_option(self, conn, kind, data=b""):
        """Convey an arbitrary TCP option inside an encrypted record
        (Sec. 3.1): reliable, unbounded by the 40-byte header limit, and
        invisible to middleboxes.  The peer reports it as
        ``SessionEvent.TCP_OPTION`` with ``(conn, kind, data)``."""
        self.pump.send_typed(conn, rec.RECORD_TYPE_TCP_OPTION,
                             rec.encode_tcp_option(kind, data))

    def announce_address(self, address):
        """Advertise one more local address to the peer mid-session
        (Sec. 3.3.2: "The server can later ... update its list of
        addresses")."""
        self._send_address(rec.CTRL_ADD_ADDRESS, address)

    def withdraw_address(self, address):
        """Tell the peer an address is no longer usable."""
        self._send_address(rec.CTRL_REMOVE_ADDRESS, address)

    def _send_address(self, opcode, address):
        target = self._first_writable()
        if target is not None:
            self.pump.send_control(
                target, rec.encode_addresses(opcode, [address]))

    def request_peer_tcp_info(self, conn, callback):
        """Retrieve the *remote* endpoint's ``tcp_info`` for this
        connection over the secure channel (Sec. 3.3.3: "retrieve
        information from the remote host, e.g. ... the remote host's
        tcp_info").  ``callback(conn, info_dict)`` fires on response."""
        self._tcpinfo_callbacks.setdefault(conn.conn_id, []).append(
            callback)
        self.pump.send_control(conn,
                               rec.encode_control(rec.CTRL_TCPINFO_REQUEST))

    def send_ebpf_program(self, conn, bytecode, program_id=1):
        """Chunk congestion-controller bytecode over the session
        (Sec. 4.4); the peer verifies and attaches it."""
        chunk_size = self.record_payload - 64
        chunks = [bytecode[i:i + chunk_size]
                  for i in range(0, len(bytecode), chunk_size)] or [b""]
        for index, chunk in enumerate(chunks):
            payload = rec.encode_ebpf_chunk(program_id, index, len(chunks),
                                            chunk)
            self.pump.send_typed(conn, rec.RECORD_TYPE_EBPF, payload)

    # ------------------------------------------------------------------
    # Which connection, which streams
    # ------------------------------------------------------------------

    def _require_ready(self):
        if not self.ready:
            raise SessionNotReadyError()

    def _first_writable(self):
        for conn in self.conns:
            if conn.usable():
                return conn
        return None

    def _is_control(self, stream):
        return (stream.connection is not None
                and stream.connection.control_stream is stream)

    def data_streams(self, conn):
        """The streams attached to ``conn``, its control stream
        excepted (what fails over with it)."""
        control = conn.control_stream
        return (s for s in self.streams.values()
                if s.connection is conn and s is not control)

    # ------------------------------------------------------------------
    # Input path
    # ------------------------------------------------------------------

    def _on_tcp_data(self, conn):
        """Pull pending bytes from the transport and feed them in (the
        driver-wired ``on_data`` path)."""
        self.bytes_received(conn, conn.tcp.recv())

    def _feed_handshake(self, conn, data):
        try:
            conn.tls.feed(data)
        except TlsError as exc:
            self.failover.fail(conn, "tls:%s" % exc)
            return
        self._flush_tls(conn)

    def _flush_tls(self, conn):
        if conn.tls is not None:
            out = conn.tls.data_to_send()
            if out:
                self.pump.write(conn, out)

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
        self.demux.epoch += 1

    def _process_records(self, conn, records):
        """The complete records of one read, strictly in order.

        A cipher with a lane tier makes the keystreams and tags of a run
        of records for little more than one, but a receiver learns a
        record's nonce only by tag trial.  So the read's trials are
        prepared first, the nonce-independent part of every tag (all of
        GHASH) in one MAC pass per lane pass, and the rest is guessed:
        once a record has been accepted on a data stream, the records
        after it are taken to continue that stream at the next
        sequences, and their pads and tags (all of Poly1305) are made in
        one pass each.  A guess stays in its record's trial and serves
        only the candidate whose nonce is the guessed one; the record is
        tried, authenticated and dispatched exactly as without it.  A
        record accepted anywhere else ends the guessed run (at most one
        pass of lane work) and starts over from where it was accepted; a
        rejected one says nothing about its neighbours.

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
            trials = prepare_records(cipher, records)
            # record index -> the (stream, seq) its trial expects
            guesses = {}
            for index, (record_bytes, trial) in enumerate(zip(records,
                                                              trials)):
                guessed = guesses.pop(index, None)
                accepted = self._process_record(conn, record_bytes, trial)
                if accepted is None:
                    continue
                if accepted != guessed:
                    guesses.clear()
                stream, seq = accepted
                rest = trials[index + 1:index + 1 + per_pass]
                if not rest or index + 1 in guesses \
                        or self._is_control(stream):
                    continue
                stream.ctx_recv.expect(seq + 1, rest)
                for offset in range(1, len(rest) + 1):
                    guesses[index + offset] = (stream, seq + offset)
        except TcplsProtocolError:
            self.failover.fail(conn, "protocol")

    def _process_record(self, conn, record_bytes, trial=None):
        """Find the record's stream by tag trial (:meth:`Demux.find
        <repro.core.engine.demux.Demux.find>`) and dispatch it; returns
        the ``(stream, seq)`` it was accepted at, or ``None``.  ``trial``
        is the record's, prepared with its read's."""
        conn.records_received += 1
        stats = self.stats
        stats["records_received"] += 1
        # One MAC pass over the record; every candidate only finishes
        # the tag under its own nonce.
        if trial is None:
            trial = prepare_record(self._recv_key, record_bytes)
        found = self.demux.find(conn, trial)
        if found is not None:
            self._accept_record(conn, *found, trial, len(record_bytes))
            return found
        # Undecryptable: duplicate failover replay or forgery.
        stats["demux_drops"] += 1
        self._emit("tls", "record_rejected", {
            "conn": conn.conn_id, "length": len(record_bytes),
        })
        self.failover.reack(conn)
        return None

    def _accept_record(self, conn, stream, seq, trial, wire_length):
        """``trial`` has just verified at ``(stream, seq)``: decrypt it
        (no second MAC pass) and dispatch it to its :attr:`ROWS` row."""
        plaintext = stream.ctx_recv.open_verified(trial, seq)
        stream.mark_decrypted(seq)
        self.stats["bytes_opened"] += len(plaintext)
        conn.last_stream = stream
        inner = rec.decode_inner(plaintext, zero_copy=True)
        if inner.record_type not in _VIEW_ROWS:
            inner.payload = bytes(inner.payload)
        elif inner.record_type == _STREAM_DATA_TYPE and self.failover_enabled:
            self.demux.opened(stream, seq, trial)
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
        self.failover.maybe_ack(conn, stream, len(inner.payload),
                                fin=bool(flags & rec.FLAG_FIN))

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

    def _on_tcp_option(self, conn, stream, seq, inner):
        kind, data = rec.decode_tcp_option(inner.payload)
        if kind == rec.OPT_USER_TIMEOUT:
            conn.tcp.set_user_timeout(rec.decode_user_timeout(data))
        self.emit(SessionEvent.TCP_OPTION, conn, kind, data)

    def _on_ebpf_chunk(self, conn, stream, seq, inner):
        """Collect a program's chunks (:class:`ProgramChunks`) and ask
        the transport to verify and attach it (drivers without pluggable
        CC decline)."""
        program_id, index, total, data = rec.decode_ebpf_chunk(inner.payload)
        bytecode = self._ebpf_chunks.add(program_id, index, total, data)
        if bytecode is None:
            return
        attached = conn.tcp.attach_ebpf_congestion(
            bytecode, program_name="prog%d" % program_id)
        if attached:
            self.emit(SessionEvent.EBPF_ATTACHED, conn, program_id)

    def _on_control(self, conn, stream, seq, inner):
        handler = self.ROWS.get((_CONTROL, rec.decode_control(inner.payload)))
        if handler is not None:
            handler(self, conn, inner.payload)

    def _on_ping(self, conn, stream, seq, inner):
        self.pump.send_typed(conn, rec.RECORD_TYPE_PONG, inner.payload)

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
        self.pump.send_control(
            conn, rec.encode_tcpinfo_response(conn.tcp_info()))

    def _on_tcpinfo_response(self, conn, payload):
        info = rec.decode_tcpinfo_response(payload)
        for callback in self._tcpinfo_callbacks.pop(conn.conn_id, []):
            callback(conn, info)

    #: the control plane (record.py's table): a decrypted record goes to
    #: its type's row; a CONTROL record to its ``(CONTROL, opcode)`` row.
    #: Anything else -- an unknown type or opcode, STREAM_DETACH -- is
    #: ignored.  The ACK, SYNC and ENABLE_FAILOVER rows are failover's
    #: (:mod:`repro.core.engine.failover`).
    ROWS = {
        rec.RECORD_TYPE_STREAM_DATA: _on_stream_data,
        rec.RECORD_TYPE_APPDATA: _on_appdata,
        rec.RECORD_TYPE_ACK: on_ack,
        rec.RECORD_TYPE_SYNC: on_sync,
        rec.RECORD_TYPE_TCP_OPTION: _on_tcp_option,
        rec.RECORD_TYPE_EBPF: _on_ebpf_chunk,
        rec.RECORD_TYPE_CONTROL: _on_control,
        rec.RECORD_TYPE_PING: _on_ping,
        rec.RECORD_TYPE_PONG: _on_pong,
        (_CONTROL, rec.CTRL_NEW_COOKIES): _on_new_cookies,
        (_CONTROL, rec.CTRL_ADD_ADDRESS): _on_add_address,
        (_CONTROL, rec.CTRL_REMOVE_ADDRESS): _on_remove_address,
        (_CONTROL, rec.CTRL_STREAM_ATTACH): _on_stream_attach,
        (_CONTROL, rec.CTRL_ENABLE_FAILOVER): on_enable_failover,
        (_CONTROL, rec.CTRL_TCPINFO_REQUEST): _on_tcpinfo_request,
        (_CONTROL, rec.CTRL_TCPINFO_RESPONSE): _on_tcpinfo_response,
        (_CONTROL, rec.CTRL_NEW_TOKENS): _on_new_tokens,
    }
