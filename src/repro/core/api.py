"""Application-facing TCPLS API (the Fig. 5 workflow).

The paper's API is session-level and event-driven: the application
configures a context, registers callbacks, explicitly opens TCP
connections between chosen address pairs (optionally racing them,
Happy-Eyeballs style), and then drives streams.
:class:`TcplsConnection` is that facade over
:func:`~repro.core.drivers.sim.TcplsClient`.
"""

from repro.core.drivers.sim import TcplsClient
from repro.core.engine.events import SessionEvent
from repro.core.errors import SessionStateError
from repro.net.address import Endpoint


class TcplsConnection:
    """High-level client handle.

    Typical use (mirroring the paper's workflow)::

        api = TcplsConnection(sim, stack, psk=b"secret")
        api.add_address(client_v4); api.add_address(client_v6)
        api.add_peer_address(server_v4, 443); api.add_peer_address(server_v6, 443)
        api.on("ready", lambda s: ...)
        api.connect(src=client_v4, dst=server_v4)    # primary + handshake
        ...
        api.join(src=client_v6)                      # second path
        group = api.aggregate()                       # couple all paths
        group.send(data)
    """

    def __init__(self, sim, stack, psk, cipher_names=("null-tag",),
                 enable_tcpls=True, **session_kwargs):
        self.sim = sim
        self.stack = stack
        self.session = TcplsClient(sim, stack, psk,
                                   cipher_names=cipher_names,
                                   enable_tcpls=enable_tcpls,
                                   **session_kwargs)
        self.local_addresses = []
        self.peer_endpoints = []

    def on(self, event, handler):
        """Subscribe ``handler`` to the session's
        :class:`~repro.core.engine.events.SessionEvent` named ``event``
        in lower case (``"ready"``, ``"conn_failed"``, ...): the paper's
        connection events (establishment, stream attachment, joins,
        options...)."""
        member = SessionEvent.__members__.get(event.upper())
        if member is None:
            raise ValueError("unknown event %r (have: %s)" % (
                event, ", ".join(e.name.lower() for e in SessionEvent)))
        self.session.subscribe(member, handler)
        return self

    # -- address bookkeeping ------------------------------------------------

    def add_address(self, address):
        """Declare a local address usable for connections (v4 or v6)."""
        self.local_addresses.append(address)
        return self

    def add_peer_address(self, address, port):
        self.peer_endpoints.append(Endpoint(address, port))
        return self

    # -- connection management ---------------------------------------------

    def connect(self, src=None, dst=None, timeout=None):
        """Open the primary connection.

        With ``src``/``dst`` omitted, races the first two configured
        address pairs Happy-Eyeballs style: both TCP connections start
        and the first to complete its handshake wins; the loser is
        aborted (``timeout`` bounds the race, default 50 ms as in the
        paper's example).
        """
        if src is not None or dst is not None:
            src = src if src is not None else self.local_addresses[0]
            dst = dst if dst is not None else self.peer_endpoints[0]
            return self.session.connect(src, dst)
        return self._happy_eyeballs(timeout if timeout is not None else 0.05)

    def _happy_eyeballs(self, timeout):
        pairs = list(zip(self.local_addresses, self.peer_endpoints))
        if not pairs:
            raise SessionStateError("no address pairs configured")
        if len(pairs) == 1:
            return self.session.connect(*pairs[0])
        # Race at the TCP level, then run TCPLS on the winner.
        winners = []
        probes = []
        for src, dst in pairs[:2]:
            probe = self.stack.connect(src, dst)
            probes.append((probe, src, dst))
            probe.on_established = (
                lambda c, s=src, d=dst: winners.append((c, s, d))
            )

        def decide():
            if not winners:
                # Nothing established inside the timeout; keep waiting on
                # whichever probe succeeds first.
                for probe, src, dst in probes:
                    probe.on_established = (
                        lambda c, s=src, d=dst: self._finish_race(
                            probes, c, s, d)
                    )
                return
            conn, src, dst = winners[0]
            self._finish_race(probes, conn, src, dst)

        self.sim.schedule(timeout, decide)
        return None

    def _finish_race(self, probes, winner, src, dst):
        for probe, _s, _d in probes:
            if probe is not winner:
                probe.abort()
        winner.abort()  # release the probe; TCPLS opens its own connection
        self.session.connect(src, dst)

    def join(self, src, dst=None):
        """Join one more path using a stored cookie."""
        return self.session.join(src, remote=dst)

    # -- transport services ---------------------------------------------------

    def new_stream(self, conn=None):
        conn = conn or self.session._first_writable()
        return self.session.create_stream(conn)

    def aggregate(self, conns=None, scheduler=None):
        """Couple streams over the given (default: all) connections for
        bandwidth aggregation."""
        conns = conns or self.session.alive_connections()
        return self.session.create_coupled_group(conns, scheduler=scheduler)

    def enable_failover(self):
        self.session.enable_failover()
        return self

    def set_user_timeout(self, seconds, conn=None):
        conn = conn or self.session._first_writable()
        self.session.set_user_timeout(conn, seconds)
        return self

    def tcp_info(self, conn=None):
        conn = conn or self.session._first_writable()
        return conn.tcp_info()

    def connections(self):
        return self.session.connections()


def tcpls_connect(sim, stack, local_addr, remote, psk, **kwargs):
    """One-call helper: build a client session and open the primary
    connection.  Returns the :func:`~repro.core.drivers.sim.TcplsClient`."""
    client = TcplsClient(sim, stack, psk, **kwargs)
    client.connect(local_addr, remote)
    return client
