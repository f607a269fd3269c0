"""TCPLS server endpoint (engine side).

A :class:`TcplsServerEngine` listens on one port and manages many TCPLS
sessions.  For each accepted transport it runs a TLS handshake; a
ClientHello carrying TCPLS Hello opens a new session (assigning the
SESSID, a batch of single-use cookies, and the server's address
advertisement in EncryptedExtensions), while a ClientHello carrying
TCPLS Join attaches the connection to the existing session named by its
SESSID -- after validating and consuming the cookie.  By issuing ``n``
cookies the server caps the client at ``n`` additional connections
(resource-exhaustion resistance, Sec. 3.3.2).  Cookies and the
unlinkable tokens of Sec. 3.4 live in one ``credential -> session``
map.  Either way the connection enters its session through
:meth:`~repro.core.engine.session.TcplsEngine.attach_conn`; a join whose
handshake completes before its session's primary has attached waits,
parked, until it has.

The engine keeps the serving layer's books where it handles each
transport (the ``CONN_OPENED``/``CONN_CLOSED`` lifecycle picotcpls
reports through ``tcpls_event_t``): a transport is *live* from accept
until it aborts, fails, is closed by its peer or its session retires,
and *pending* until it attaches.  Two opt-ins serve many sessions on
one loop: ``budget_bytes`` bounds each session's receive memory (its
transports stop being read above the budget, so the peer is throttled
by its closing window, and are read again once the application drains
below half of it), and ``auto_retire`` retires a session one tick
after its last transport goes.  Every change is published on the bus's
``mux`` category with the ``table`` (live transports) and ``sessions``
gauges.
"""

import hashlib

from repro.core import record as rec
from repro.core.engine.connection import ConnectionState
from repro.core.engine.events import EventSource, SessionEvent, slot
from repro.core.engine.session import TcplsEngine
from repro.core.stream import conn_id_from_cookie
from repro.tls.endpoint import TlsServer
from repro.tls.extensions import (
    EXT_COOKIE_TCPLS,
    EXT_TCPLS_ADDRESSES,
    EXT_TCPLS_HELLO,
    EXT_TCPLS_JOIN,
    EXT_TCPLS_SESSID,
    EXT_TCPLS_TOKEN,
    EXT_TCPLS_TOKENS,
    Extension,
    decode_tcpls_join,
    encode_address_list,
    encode_cookie_list,
)
from repro.tls.record import TlsError


class TcplsServerSessionEngine(TcplsEngine):
    """One server-side session (a client plus its joined connections)."""

    def __init__(self, server, session_id):
        super().__init__(server.driver, is_client=False,
                         **server.session_kwargs)
        self.server = server
        self.session_id = session_id
        #: join credentials minted for this session and not yet spent:
        #: what :meth:`TcplsServerEngine.retire` revokes
        self.outstanding = set()
        #: joins whose handshake completed before the primary's, in
        #: arrival order (each spent a single-use credential, so at
        #: most one batch of them); attached right after the primary
        self.parked = []
        self.subscribe(SessionEvent.CONN_FAILED, lambda conn, reason:
                       server._conn_gone(conn, "failed:%s" % reason))
        if server.budget_bytes is not None:
            self.subscribe(SessionEvent.DRAIN, self._resume_reads)

    def conn_closed(self, conn):
        super().conn_closed(conn)
        self.server._conn_gone(conn, "close")

    # -- the receive budget ------------------------------------------------

    def _on_tcp_data(self, conn):
        budget = self.server.budget_bytes
        if budget is None:
            self.bytes_received(conn, conn.tcp.recv())
            return
        if conn.paused:
            return
        if self.buffered_rx_bytes() < budget:
            self.bytes_received(conn, conn.tcp.recv())
            if self.buffered_rx_bytes() < budget:
                return
        # On a simulated transport pause_reading does nothing: the
        # bytes wait unread, the advertised window closes and TCP
        # throttles the peer, as a kernel socket without read interest.
        conn.paused = True
        server = self.server
        server.stats["pauses"] += 1
        conn.tcp.pause_reading()
        server._note("pause", {"session": self.obs_id, "conn": conn.conn_id,
                               "buffered": self.buffered_rx_bytes()})

    def _resume_reads(self, _session):
        """``DRAIN``: once the application is below half the budget,
        read the paused transports again."""
        server = self.server
        if self.buffered_rx_bytes() > server.budget_bytes // 2:
            return
        for conn in self.conns:
            if conn.paused and conn in server.live:
                conn.paused = False
                server.stats["resumes"] += 1
                conn.tcp.resume_reading()
                server._note("resume", {"session": self.obs_id,
                                        "conn": conn.conn_id})
                # Next tick: DRAIN fires inside recv(), often deep in
                # this session's own delivery path.
                self.clock.schedule(0.0, self._read_backlog, conn)

    def _read_backlog(self, conn):
        """What arrived while ``conn`` was paused, read through the
        budget (which pauses it again if it overshoots)."""
        if conn.paused or conn not in self.server.live:
            return
        if conn.tcp.is_open() or conn.tcp.readable_bytes():
            self._on_tcp_data(conn)


class TcplsServerEngine(EventSource):
    """Listener managing TCPLS sessions on a port, over any driver."""

    #: each new server session, before any of its records is processed
    #: (where the application attaches its session handlers)
    on_session = slot(SessionEvent.SESSION)
    #: a connection whose handshake was refused before it attached:
    #: its transport is aborted, which fires no transport callback
    on_aborted = slot(SessionEvent.ABORTED)

    def __init__(self, driver, port, psk, cipher_names=("null-tag",),
                 cookie_batch=8, auto_replenish=True, enable_tcpls=True,
                 strict_extensions=False, advertise_addresses=True,
                 token_mode=False, cc=None, budget_bytes=None,
                 auto_retire=False, **session_kwargs):
        super().__init__()
        self.driver = driver
        self.clock = driver.clock
        self.psk = psk
        self.cipher_names = tuple(cipher_names)
        self.cookie_batch = cookie_batch
        #: refresh the client's join budget on each successful join
        #: (failed probes over dead paths burn credentials silently)
        self.auto_replenish = auto_replenish
        #: Sec. 3.4 unlinkable joins: hand out single-use tokens that
        #: identify both the session and the join right, instead of a
        #: session-long SESSID plus per-join cookies.
        self.token_mode = token_mode
        #: every unspent join credential, cookie or token -> its session
        self._credentials = {}
        self.enable_tcpls = enable_tcpls
        self.strict_extensions = strict_extensions
        self.advertise_addresses = advertise_addresses
        self.session_kwargs = session_kwargs
        self.sessions = {}
        self._cookie_seq = 0
        #: monotonic session ordinal -- NOT ``len(self.sessions)``:
        #: once sessions are retired the length repeats and a fresh id
        #: would collide with, and silently overwrite, a live session's
        #: dict slot.
        self._session_seq = 0
        #: per-session receive-memory budget in bytes (None: unbounded)
        self.budget_bytes = budget_bytes
        #: retire a session once its last transport is gone (herd-scale
        #: churn would otherwise leak session state)
        self.auto_retire = auto_retire
        #: the books: every live transport's connection, and lifetime
        #: counts (``peak`` is the most transports live at once)
        self.live = set()
        self.stats = {"accepts": 0, "attaches": 0, "teardowns": 0,
                      "peak": 0, "pauses": 0, "resumes": 0, "retired": 0}
        self.listener = driver.listen(port, self._on_accept, cc=cc)
        #: actual bound port (drivers may assign one when ``port`` is 0)
        self.port = self.listener.port

    # ------------------------------------------------------------------
    # Sessions and join credentials
    # ------------------------------------------------------------------

    def _new_session_id(self):
        material = b"%s:%d:%d" % (
            self.driver.name.encode(), self.port, self._session_seq
        )
        self._session_seq += 1
        return hashlib.sha256(material).digest()[:16]

    def _mint(self, session, count):
        prefix = b"token" if self.token_mode else b""
        credentials = []
        for _ in range(count):
            self._cookie_seq += 1
            credential = hashlib.sha256(
                prefix + session.session_id
                + self._cookie_seq.to_bytes(8, "big") + self.psk
            ).digest()[:16]
            self._credentials[credential] = session
            session.outstanding.add(credential)
            credentials.append(credential)
        return credentials

    def issue_credentials(self, session, count):
        """Send a fresh batch of join credentials (cookies, or tokens
        in token mode) over the secure channel: the server can extend
        the join budget at any time (Sec. 3.3.2)."""
        credentials = self._mint(session, count)
        conn = session._first_writable()
        if conn is not None:
            opcode = (rec.CTRL_NEW_TOKENS if self.token_mode
                      else rec.CTRL_NEW_COOKIES)
            session.pump.send_control(
                conn, rec.encode_credentials(opcode, credentials))
        return credentials

    def retire(self, session):
        """Close ``session`` and forget it, with its transports, revoking
        its unspent join credentials: a later join presenting one must be
        refused, not resurrect the session.  Returns how many were
        revoked."""
        for conn in session.conns:
            self._forget(conn)
        revoked = len(session.outstanding)
        for credential in session.outstanding:
            del self._credentials[credential]
        session.outstanding.clear()
        session.close()
        self.sessions.pop(session.session_id, None)
        self.stats["retired"] += 1
        self._note("session_retired", {"session": session.obs_id,
                                       "revoked_credentials": revoked})
        return revoked

    # ------------------------------------------------------------------
    # The books
    # ------------------------------------------------------------------

    def _note(self, name, data=None):
        """Publish one serving event on the bus's ``mux`` category."""
        bus = self.driver.bus
        if not bus.wants("mux"):
            return
        payload = {"table": len(self.live), "sessions": len(self.sessions)}
        if data:
            payload.update(data)
        bus.emit("mux", name, payload)

    def _forget(self, conn):
        """Drop ``conn`` from the live transports; False if it was not
        there (a teardown racing another)."""
        if conn not in self.live:
            return False
        self.live.remove(conn)
        self.stats["teardowns"] += 1
        return True

    def _pending_gone(self, conn, reason):
        if self._forget(conn):
            self._note("pending_teardown", {"reason": reason})

    def _conn_gone(self, conn, reason):
        """An attached connection failed or its peer closed it."""
        if not self._forget(conn):
            return
        session = conn.session
        self._note("teardown", {"session": session.obs_id,
                                "conn": conn.conn_id, "reason": reason})
        if self.auto_retire and not self._has_live(session):
            # Next tick: this runs deep in the transport's close/reset
            # delivery, and a join racing the teardown may still attach
            # first (the check then keeps the session).
            self.clock.schedule(0.0, self._retire_if_idle, session)

    def _has_live(self, session):
        return any(conn in self.live for conn in session.conns)

    def _retire_if_idle(self, session):
        if session.session_id in self.sessions \
                and not self._has_live(session):
            self.retire(session)

    # ------------------------------------------------------------------
    # Accept and ClientHello
    # ------------------------------------------------------------------

    def _on_accept(self, tcp):
        tls = TlsServer(
            self.psk, self.driver.rng, cipher_names=self.cipher_names,
            strict_extensions=self.strict_extensions,
        )
        # The session is only known once the ClientHello is parsed.
        conn = ConnectionState(tcp, tls)
        tls.encrypted_extensions_fn = (
            lambda hello: self._answer_client_hello(conn, hello))
        # 0-RTT early data (Sec. 4.5): buffered until the session is up,
        # then delivered as stream-0 application data.
        tls.on_application_data = (
            lambda _e, data: conn.early_data.append(data))
        tls.on_handshake_complete = (
            lambda _e: self._on_handshake_complete(conn))
        # Attaching re-wires all three to the session.
        tcp.set_callbacks(
            on_data=lambda _c: self._feed(conn),
            on_close=lambda _c: self._pending_gone(conn, "close"),
            on_reset=lambda _c: self._pending_gone(conn, "reset"),
        )
        self.live.add(conn)
        stats = self.stats
        stats["accepts"] += 1
        stats["peak"] = max(stats["peak"], len(self.live))
        self._note("accept")

    def _feed(self, conn):
        """Handshake bytes of a connection that has not attached yet."""
        if conn.tls.handshake_complete:
            # Parked: what arrives now is records for a session without
            # keys.  They wait, unread, in the transport.
            return
        data = conn.tcp.recv()
        if not data:
            return
        try:
            conn.tls.feed(data)
        except TlsError:
            conn.tcp.abort()
            self._pending_gone(conn, "abort")
            self.emit(SessionEvent.ABORTED, conn)
            return
        out = conn.tls.data_to_send()
        if out:
            conn.tcp.send(out)

    def _answer_client_hello(self, conn, client_hello):
        token_ext = client_hello.find_extension(EXT_TCPLS_TOKEN)
        if token_ext is not None:
            return self._answer_join(conn, token_ext.data)
        join_ext = client_hello.find_extension(EXT_TCPLS_JOIN)
        if join_ext is not None:
            session_id, cookie = decode_tcpls_join(join_ext.data)
            return self._answer_join(conn, cookie, session_id)
        hello_ext = client_hello.find_extension(EXT_TCPLS_HELLO)
        if hello_ext is not None and self.enable_tcpls:
            return self._answer_hello(conn)
        return []

    def _answer_hello(self, conn):
        session_id = self._new_session_id()
        session = TcplsServerSessionEngine(self, session_id)
        session.tcpls_enabled = True
        self.sessions[session_id] = session
        conn.session = session
        extensions = [Extension(EXT_TCPLS_HELLO, b"")]
        credentials = encode_cookie_list(
            self._mint(session, self.cookie_batch))
        if self.token_mode:
            extensions.append(Extension(EXT_TCPLS_TOKENS, credentials))
        else:
            extensions.append(Extension(EXT_TCPLS_SESSID, session_id))
            extensions.append(Extension(EXT_COOKIE_TCPLS, credentials))
        if self.advertise_addresses:
            extensions.append(Extension(
                EXT_TCPLS_ADDRESSES,
                encode_address_list(self.driver.advertised_addresses()),
            ))
        return extensions

    def _answer_join(self, conn, credential, session_id=None):
        """A token names its session by itself; a cookie must also
        come with the session's SESSID."""
        session = self._credentials.get(credential)
        if session is None or session_id not in (None, session.session_id):
            raise TlsError("TCPLS join: unknown session, or invalid or "
                           "reused credential")
        del self._credentials[credential]     # single use
        session.outstanding.discard(credential)
        conn.session = session
        conn.conn_id = conn_id_from_cookie(credential)
        return [Extension(EXT_TCPLS_HELLO, b"")]

    # ------------------------------------------------------------------
    # Handshake completion
    # ------------------------------------------------------------------

    def _on_handshake_complete(self, conn):
        session = conn.session
        if session is None:
            # Plain TLS client: wrap it in a degraded session so the
            # application still gets stream-0 data callbacks.
            session = conn.session = TcplsServerSessionEngine(
                self, b"\x00" * 16)
        if not conn.is_primary and not session.ready:
            # The join overtook its primary (the client's last handshake
            # flight was lost on the first path): the session has no
            # keys yet.  Park it; records that shared a read with its
            # Finished wait in the connection's own reassembler.
            conn.tls.takeover = conn.reassembler.hold
            session.parked.append(conn)
            return
        self._attach(conn)
        if conn.is_primary:
            parked, session.parked = session.parked, []
            for join in parked:
                if join.tcp.is_open():
                    self._attach(join)
                    join.tcp.on_data(join.tcp)    # what waited unread

    def _attach(self, conn):
        session = conn.session
        session.attach_conn(conn, self._role_step)
        if conn.early_data:
            stream0 = conn.control_stream
            for chunk in conn.early_data:
                stream0.recv_buffer += chunk
            session.emit(SessionEvent.STREAM_DATA, stream0)
        if conn.failed:
            # It failed inside attach_conn: already torn down, by the
            # session's CONN_FAILED handler.
            return
        self.stats["attaches"] += 1
        # Drop the TLS handshake machine (tens of KB per connection at
        # C1M scale) on the next tick: the handshake often completes
        # inside tls.feed(), whose caller still touches conn.tls after.
        self.clock.schedule(0.0, conn.release_handshake)
        self._note("attach", {"session": session.obs_id,
                              "conn": conn.conn_id,
                              "join": not conn.is_primary})

    def _role_step(self, conn):
        if conn.is_primary:
            self.emit(SessionEvent.SESSION, conn.session)
        elif self.auto_replenish:
            # Keep the client's join budget topped up: failed probes
            # over dead paths burn single-use credentials the server
            # never sees (Sec. 3.3.2 allows the server to send more at
            # any time), so each successful join refreshes a batch.
            self.issue_credentials(conn.session, self.cookie_batch)


__all__ = ["TcplsServerEngine", "TcplsServerSessionEngine"]
