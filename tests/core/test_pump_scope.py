"""``conn_writable`` pumps the whole session, and has to.

TCP reports send space (``on_send_space`` → ``conn_writable``) before
the ``_try_send`` that closes the same ACK, so a connection's record
budget can re-open just after its own pump has looked at it.  The next
``conn_writable`` -- on whichever connection -- is what seals the record
that fits.  Pumping only the acknowledged connection's streams looks
equivalent ("an ACK changes no other connection's budget") and is not:
the record is then sealed one of its own connection's ACKs later, which
is enough to move where a rotating-outage transfer stands when a path
dies (``fig9/rotate=0.35/paths=2`` in the matrix changes outcome).
This pins the behaviour those rows depend on.
"""

from helpers import PSK

from repro.core import TcplsClient, TcplsServer
from repro.core.engine.session import TcplsEngine
from repro.net import Simulator, build_multipath
from repro.net.address import Endpoint
from repro.tcp import TcpStack

GROUP_BYTES = 384 << 10
STREAM_BYTES = 96 << 10


def test_an_ack_on_one_connection_seals_for_another(monkeypatch):
    """A coupled group over two unequal paths plus an uncoupled stream
    on the first: some of that stream's records are sealed while the
    engine handles an ACK of the *second* connection."""
    sim = Simulator(seed=3)
    topo = build_multipath(sim, n_paths=2, rates=[25_000_000, 2_000_000])
    server = TcplsServer(sim, TcpStack(sim, topo.server), 443, psk=PSK)
    sessions = []
    server.on_session = sessions.append
    client = TcplsClient(sim, TcpStack(sim, topo.client), psk=PSK)
    first = topo.path(0)
    client.connect(first.client_addr, Endpoint(first.server_addr, 443))
    sim.run(until=0.2)
    client.join(topo.path(1).client_addr)
    sim.run(until=0.5)
    assert len(client.alive_connections()) == 2

    handling = []                 # the connection whose ACK is being handled
    inner = TcplsEngine.conn_writable

    def conn_writable(self, conn):
        handling.append(conn)
        try:
            inner(self, conn)
        finally:
            handling.pop()
    monkeypatch.setattr(TcplsEngine, "conn_writable", conn_writable)

    sealed_for_another = []

    def on_event(event):
        if event.name == "record_sealed" and handling and \
                event.data["session"] == client.obs_id and \
                event.data["conn"] != handling[-1].conn_id:
            sealed_for_another.append(event.data["stream"])
    sim.bus.subscribe(on_event, categories=("tls",))

    got = {"group": 0, "stream": 0}

    def count(key):
        return lambda source: got.__setitem__(
            key, got[key] + len(source.recv()))
    sessions[0].on_group_data = count("group")
    sessions[0].on_stream_data = count("stream")
    group = client.create_coupled_group(client.alive_connections())
    group.send(bytes(GROUP_BYTES))
    group.close()
    stream = client.create_stream(client.conns[0])
    stream.send(bytes(STREAM_BYTES))
    stream.close()
    sim.run(until=30.0)
    assert got == {"group": GROUP_BYTES, "stream": STREAM_BYTES}
    assert stream.stream_id in sealed_for_another
