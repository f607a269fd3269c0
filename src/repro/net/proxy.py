"""Transparent TLS-terminating proxy (the mitmproxy of Sec. 5.2).

A middlebox *host* that terminates both the TCP connection and the TLS
session: toward the client it acts as a TLS server (with the
enterprise-deployed PSK, the analogue of an installed interception CA),
toward the origin it opens its own TLS connection.  Application data is
relayed in both directions; anything TCPLS put into handshake
extensions disappears, because the proxy answers the ClientHello
itself -- which is exactly why a TCPLS client behind such a proxy falls
back to plain TLS ("transparent TLS proxy successfully triggered TCPLS
fallback", Sec. 5.2).
"""

from repro.net.address import Endpoint
from repro.tls.endpoint import TlsClient, TlsServer
from repro.tls.record import TlsError


class TlsTerminatingProxy:
    """Accepts TLS on ``listen_port`` and relays to ``origin``.

    Parameters
    ----------
    stack:
        The proxy host's :class:`~repro.tcp.TcpStack`.
    origin:
        ``Endpoint`` of the real server.
    psk:
        The PSK the proxy authenticates with on both legs.
    """

    def __init__(self, sim, stack, listen_port, origin, psk,
                 cipher_names=("null-tag",)):
        self.sim = sim
        self.stack = stack
        self.origin = origin
        self.psk = psk
        self.cipher_names = tuple(cipher_names)
        self.relayed_client_to_origin = 0
        self.relayed_origin_to_client = 0
        self.sessions = 0
        stack.listen(listen_port, self._on_accept)

    def _on_accept(self, client_tcp):
        self.sessions += 1
        upstream_iface = self.stack.host.route(self.origin.addr)
        if upstream_iface is None:
            client_tcp.abort()
            return
        origin_tcp = self.stack.connect(upstream_iface.address, self.origin)
        leg = _ProxySession(self, client_tcp, origin_tcp)
        leg.start()


class _ProxySession:
    """One intercepted session: client<->proxy and proxy<->origin legs."""

    def __init__(self, proxy, client_tcp, origin_tcp):
        self.proxy = proxy
        self.client_tcp = client_tcp
        self.origin_tcp = origin_tcp
        # Toward the client: a plain TLS server (no TCPLS answers).
        self.downstream = TlsServer(proxy.psk, proxy.sim.rng,
                                    cipher_names=proxy.cipher_names)
        # Toward the origin: a plain TLS client (extensions stripped).
        self.upstream = TlsClient(proxy.psk, proxy.sim.rng,
                                  cipher_names=proxy.cipher_names)
        self._client_backlog = []
        self._origin_backlog = []

    def start(self):
        self.downstream.on_application_data = self._from_client
        self.upstream.on_application_data = self._from_origin
        self.downstream.on_handshake_complete = (
            lambda _e: self._flush(self._client_backlog, self.downstream,
                                   self.client_tcp))
        self.upstream.on_handshake_complete = (
            lambda _e: self._flush(self._origin_backlog, self.upstream,
                                   self.origin_tcp))
        self.client_tcp.on_data = lambda _c: self._feed(
            self.downstream, self.client_tcp)
        self.origin_tcp.on_data = lambda _c: self._feed(
            self.upstream, self.origin_tcp)
        self.origin_tcp.on_established = lambda _c: self._start_upstream()

    def _start_upstream(self):
        self.upstream.start()
        self._pump(self.upstream, self.origin_tcp)

    def _feed(self, endpoint, tcp):
        data = tcp.recv()
        if not data:
            return
        try:
            endpoint.feed(data)
        except TlsError:
            self.client_tcp.abort()
            self.origin_tcp.abort()
            return
        self._pump_both()

    def _pump(self, endpoint, tcp):
        out = endpoint.data_to_send()
        if out and tcp.is_open() or out and tcp.state in ("SYN_SENT",
                                                          "SYN_RCVD"):
            tcp.send(out)

    def _pump_both(self):
        self._pump(self.downstream, self.client_tcp)
        self._pump(self.upstream, self.origin_tcp)

    def _from_client(self, _endpoint, data):
        """Client application bytes -> re-encrypt toward the origin."""
        self.proxy.relayed_client_to_origin += len(data)
        if self.upstream.handshake_complete:
            self.upstream.send_application_data(data)
            self._pump(self.upstream, self.origin_tcp)
        else:
            self._origin_backlog.append(data)

    def _from_origin(self, _endpoint, data):
        """Origin application bytes -> re-encrypt toward the client."""
        self.proxy.relayed_origin_to_client += len(data)
        if self.downstream.handshake_complete:
            self.downstream.send_application_data(data)
            self._pump(self.downstream, self.client_tcp)
        else:
            self._client_backlog.append(data)

    def _flush(self, backlog, endpoint, tcp):
        while backlog:
            endpoint.send_application_data(backlog.pop(0))
        self._pump(endpoint, tcp)
