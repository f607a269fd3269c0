"""TCPLS client endpoint (engine side).

Opens the primary transport with a TLS handshake carrying the TCPLS
Hello extension, stores the server's SESSID / cookies / address
advertisement from EncryptedExtensions, and joins additional transports
using one single-use cookie each (Fig. 3 of the paper).

Fallback behaviour (Sec. 5.2): if the server's EncryptedExtensions omit
the TCPLS Hello (a TLS-terminating proxy or a plain TLS server), the
session continues as ordinary TLS on stream 0; if the handshake is
reset outright (legacy servers aborting on unknown extensions), the
client retries once without any TCPLS extension.
"""

from repro.core.engine.session import TcplsEngine
from repro.core.errors import JoinError, SessionStateError
from repro.core.stream import conn_id_from_cookie
from repro.tls.endpoint import TlsClient
from repro.tls.extensions import (
    EXT_COOKIE_TCPLS,
    EXT_TCPLS_ADDRESSES,
    EXT_TCPLS_HELLO,
    EXT_TCPLS_JOIN,
    EXT_TCPLS_SESSID,
    EXT_TCPLS_TOKEN,
    EXT_TCPLS_TOKENS,
    Extension,
    decode_address_list,
    decode_cookie_list,
    encode_tcpls_join,
    find_extension,
)


class TcplsClientEngine(TcplsEngine):
    """Client-side TCPLS session over any driver."""

    def __init__(self, driver, psk, cipher_names=("null-tag",),
                 enable_tcpls=True, fallback_retry=True, join_timeout=1.0,
                 key_exchange="dhe", **session_kwargs):
        super().__init__(driver, is_client=True, **session_kwargs)
        self.psk = psk
        self.cipher_names = tuple(cipher_names)
        self.enable_tcpls = enable_tcpls
        self.fallback_retry = fallback_retry
        #: ``"dhe"`` (default) or ``"psk"`` (RFC 8446 psk_ke: skip the
        #: FFDHE exponentiations -- the cheap handshake mass-session
        #: load generators use; see repro.core.drivers.multi)
        self.key_exchange = key_exchange
        #: abandon a join attempt that has not completed in this long
        #: and rotate to another path (failover path probing)
        self.join_timeout = join_timeout
        self._primary_remote = None
        self._primary_local = None
        self._recently_failed_pairs = {}

    # ------------------------------------------------------------------
    # Connection establishment
    # ------------------------------------------------------------------

    def connect(self, local_addr, remote, cc=None, tfo=False,
                early_data=b""):
        """Open the primary connection; the TCPLS handshake rides the
        TLS handshake.  ``remote`` is an endpoint object.

        With ``tfo=True`` (and a cached Fast Open cookie from an
        earlier connection) the ClientHello -- and any ``early_data``,
        protected under the 0-RTT keys -- travels inside the TCP SYN,
        the paper's Sec. 4.5 low-latency establishment.  The first
        connection to a server runs a regular handshake and caches the
        cookie.
        """
        if self.conns:
            raise SessionStateError("primary connection already exists")
        self._primary_remote = remote
        self._primary_local = local_addr
        extra = [Extension(EXT_TCPLS_HELLO, b"")] if self.enable_tcpls else []
        return self._open(local_addr, remote, extra, cc=cc, tfo=tfo,
                          early_data=early_data)

    def join(self, local_addr, remote=None, cc=None):
        """Join one more TCP connection to the session using a stored
        single-use cookie (connection migration / multipath)."""
        self._require_ready()
        if not self.tcpls_enabled:
            raise JoinError("session fell back to plain TLS; cannot join")
        if not self.cookies and not self.tokens:
            raise JoinError("no join cookies left (server controls joins)")
        if remote is None:
            remote = self._pick_remote(local_addr)
        if self.tokens:
            # Sec. 3.4 unlinkable join: the single-use token stands in
            # for both the SESSID and the cookie, so nothing on the
            # wire repeats across the session's connections.
            credential = self.tokens.pop(0)
            join_ext = Extension(EXT_TCPLS_TOKEN, credential)
        else:
            credential = self.cookies.pop(0)
            join_ext = Extension(
                EXT_TCPLS_JOIN,
                encode_tcpls_join(self.session_id, credential),
            )
        conn = self._open(local_addr, remote, [join_ext], cc=cc,
                          conn_id=conn_id_from_cookie(credential))
        if self.join_timeout is not None:
            self.clock.call_later(self.join_timeout, self._check_join, conn)
        return conn

    def _check_join(self, conn):
        """Abandon a join that never completed (e.g. the chosen path is
        blackholed) so the failover engine can probe another path."""
        if conn.alive or conn.failed:
            return
        conn.tcp.abort()
        self._conn_failed(conn, "join-timeout")

    def _mark_pair_failed(self, conn):
        pair = (conn.tcp.local.addr, conn.tcp.remote.addr)
        self._recently_failed_pairs[pair] = self.clock.now

    def _pick_remote(self, local_addr):
        """Choose an advertised server address matching the local family."""
        family = local_addr.family if hasattr(local_addr, "family") else 4
        for address in self.peer_addresses:
            if address.family == family and \
                    address != self._primary_remote.addr:
                return self.driver.endpoint(address,
                                            self._primary_remote.port)
        for address in self.peer_addresses:
            if address != self._primary_remote.addr:
                return self.driver.endpoint(address,
                                            self._primary_remote.port)
        return self._primary_remote

    def _open(self, local_addr, remote, extra_extensions, cc=None,
              conn_id=0, tfo=False, early_data=b""):
        tls = TlsClient(self.psk, self.driver.rng,
                        cipher_names=self.cipher_names,
                        extra_extensions=extra_extensions,
                        early_data=early_data,
                        key_exchange=self.key_exchange)
        tfo_payload = b""
        usable_tfo = (tfo and self.driver.tfo_enabled
                      and self.driver.tfo_cookie_for(remote.addr))
        if usable_tfo:
            # Pre-build the first TLS flight so it can ride the SYN.
            tls.start()
            tfo_payload = tls.data_to_send()
        tcp = self.driver.connect(local_addr, remote, cc=cc,
                                  tfo_data=tfo_payload)
        conn = self._open_conn(tcp, tls, conn_id)
        tls.on_handshake_complete = (
            lambda _endpoint: self._on_handshake_complete(conn)
        )
        if tfo_payload:
            # Flight already in the SYN; nothing to do at establishment.
            tcp.set_callbacks(on_established=lambda _c: None)
        else:
            tcp.set_callbacks(
                on_established=lambda _c: self._start_tls(conn))
        return conn

    def _start_tls(self, conn):
        if conn.tls._state == "START":
            conn.tls.start()
        self._flush_tls(conn)

    # ------------------------------------------------------------------
    # Handshake completion
    # ------------------------------------------------------------------

    def _on_handshake_complete(self, conn):
        """Read the server's answer, then attach: the primary learns
        the session's identity and join budget from it, a join only
        whether it was accepted."""
        ee = conn.tls.peer_encrypted_extensions
        accepted = find_extension(ee, EXT_TCPLS_HELLO) is not None
        if conn.is_primary:
            self.tcpls_enabled = accepted
            if accepted:
                self._read_session_extensions(ee)
        elif not accepted:
            # Join rejected (blocked extension on this path, Sec. 5.2):
            # cancel the attachment and notify the application.
            self._abort_conn(conn, "join-rejected")
            return
        self.attach_conn(conn, self._arm_auto_user_timeout)

    def _read_session_extensions(self, ee):
        sessid = find_extension(ee, EXT_TCPLS_SESSID)
        cookies = find_extension(ee, EXT_COOKIE_TCPLS)
        tokens = find_extension(ee, EXT_TCPLS_TOKENS)
        addresses = find_extension(ee, EXT_TCPLS_ADDRESSES)
        if sessid is not None:
            self.session_id = sessid.data
        if cookies is not None:
            self.cookies = decode_cookie_list(cookies.data)
        if tokens is not None:
            self.tokens = decode_cookie_list(tokens.data)
        if addresses is not None:
            self.peer_addresses = decode_address_list(addresses.data)

    def _arm_auto_user_timeout(self, conn):
        if self.tcpls_enabled and self.auto_user_timeout is not None:
            self.set_user_timeout(conn, self.auto_user_timeout)

    # ------------------------------------------------------------------
    # Fallback (legacy servers aborting on unknown extensions)
    # ------------------------------------------------------------------

    def _conn_failed(self, conn, reason):
        if (conn.is_primary and not self.ready and self.enable_tcpls
                and self.fallback_retry and not self.fell_back):
            conn.failed = True
            conn.alive = False
            self.fell_back = True
            self.enable_tcpls = False
            self.conns.clear()
            self.clock.call_later(0.0, self._retry_plain_tls)
            return
        super()._conn_failed(conn, reason)

    def _retry_plain_tls(self):
        self._open(self._primary_local, self._primary_remote, [])

    def _on_no_failover_target(self, failed_conn):
        """Break-before-make recovery (Fig. 4): open a fresh TCP
        connection over a different path and join it to the session.
        (local, remote) address pairs that recently failed are
        deprioritised, so repeated failures rotate through the
        available paths until a live one is found (the behaviour the
        Fig. 9 experiment measures)."""
        if not (self.cookies or self.tokens) or not self.tcpls_enabled:
            return
        self._mark_pair_failed(failed_conn)
        pair = self._next_join_pair(failed_conn)
        if pair is None:
            return
        local, remote_addr = pair
        self.join(local, remote=self.driver.endpoint(
            remote_addr, self._primary_remote.port))

    def _next_join_pair(self, failed_conn):
        """Least-recently-failed (local, remote) pair, family-matched."""
        failed_pair = (failed_conn.tcp.local.addr,
                       failed_conn.tcp.remote.addr)
        remotes = list(self.peer_addresses) or [self._primary_remote.addr]
        candidates = []
        for address in self.driver.usable_local_addresses():
            for remote_addr in remotes:
                if remote_addr.family != address.family:
                    continue
                pair = (address, remote_addr)
                if pair == failed_pair:
                    continue
                candidates.append(pair)
        if not candidates:
            return None
        candidates.sort(
            key=lambda p: self._recently_failed_pairs.get(p, -1.0)
        )
        return candidates[0]


__all__ = ["TcplsClientEngine"]
