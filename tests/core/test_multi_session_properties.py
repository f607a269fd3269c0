"""Property-based tests of multi-session serving in the server engine
(:class:`~repro.core.engine.server.TcplsServerEngine`).

Random interleavings of accept / join / close / failover against one
server with auto-retire on must preserve the serving invariants:

- **isolation**: no session ever receives another session's bytes;
- **no leaks**: after every session closes, the live transports and
  the session map are empty and accepts == teardowns;
- **no resurrection**: a retired session's outstanding join
  credentials are dead -- a late MPJOIN must fail, not revive it.

The last two are also pinned by example, through the engine's books
and :meth:`TcplsServerEngine.retire`.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import PSK, make_net

from repro.core import TcplsClient, TcplsServer
from repro.core.engine.connection import ATTACHED
from repro.net import Simulator, build_multipath
from repro.net.address import Endpoint
from repro.tcp import TcpStack

PORT = 4443
N_PATHS = 3


class _EchoClient:
    """One scripted client: sends tagged bytes, collects the echo."""

    def __init__(self, sim, stack, topo, tag):
        self.sim = sim
        self.topo = topo
        self.tag = tag
        self.sent = b""
        self.received = b""
        self.stream = None
        self.client = TcplsClient(sim, stack, psk=PSK)
        self.client.on_stream_data = self._on_data
        p = topo.path(0)
        self.client.connect(p.client_addr, Endpoint(p.server_addr, PORT))

    def _on_data(self, stream):
        self.received += stream.recv()

    def send_chunk(self):
        if self.stream is None:
            conn = next(c for c in self.client.conns if c.usable())
            self.stream = self.client.create_stream(conn)
        payload = self.tag * 512
        self.stream.send(payload)
        self.sent += payload

    def join(self, path_index):
        p = self.topo.path(path_index)
        self.client.join(p.client_addr,
                         remote=Endpoint(p.server_addr, PORT))

    def fail_primary(self):
        """Declare the stream-carrying connection dead (the UTO path's
        outcome, minus the timer wait) and fail over to a joined one."""
        self.client.enable_failover()
        self.client.conn_failed(self.stream.connection, "test")
        self.send_chunk()


def _serving_net(seed, **server_kwargs):
    sim = Simulator(seed=seed)
    topo = build_multipath(sim, n_paths=N_PATHS, families=[4, 6, 4])
    cstack = TcpStack(sim, topo.client)
    sstack = TcpStack(sim, topo.server)
    server = TcplsServer(sim, sstack, PORT, PSK, budget_bytes=256 * 1024,
                         auto_retire=True, **server_kwargs)

    def serve(session):
        session.on_stream_data = lambda s: s.send(s.recv())

    server.on_session = serve
    return sim, topo, cstack, server


def _settle(sim, seconds=1.0):
    sim.run(until=sim.now + seconds)


@settings(max_examples=8, deadline=None)
@given(
    st.lists(st.sampled_from(["accept", "join", "close", "failover"]),
             min_size=4, max_size=14),
    st.integers(0, 2**31 - 1),
)
def test_property_random_churn_interleavings(ops, seed):
    sim, topo, cstack, server = _serving_net(seed % 1000 + 1)
    rng = random.Random(seed)
    live = []
    tags = iter(bytes([c]) for c in range(65, 65 + 64))

    for op in ops:
        if op == "accept":
            ec = _EchoClient(sim, cstack, topo, next(tags))
            _settle(sim)
            assert ec.client.ready
            ec.send_chunk()
            live.append(ec)
        elif op == "join" and live:
            ec = rng.choice(live)
            if ec.client.cookies or ec.client.tokens:
                ec.join(rng.randrange(N_PATHS))
        elif op == "close" and live:
            ec = live.pop(rng.randrange(len(live)))
            _settle(sim)          # let the echo drain before closing
            ec.client.close()
        elif op == "failover" and live:
            ec = rng.choice(live)
            joined = [c for c in ec.client.conns[1:] if c.usable()]
            if joined and ec.stream is not None:
                ec.fail_primary()
        _settle(sim, 0.3)
        closed = [ec for ec in live if not ec.client.ready]
        for ec in closed:         # a failover op can kill a session
            live.remove(ec)

    _settle(sim)
    done = []
    for ec in live:
        ec.client.close()
        done.append(ec)
    _settle(sim)

    # Isolation: every client got back exactly its own bytes.
    for ec in done:
        assert ec.received == ec.sent, \
            "session %r echo mismatch" % ec.tag
        assert set(ec.received) <= set(ec.tag), \
            "session %r received foreign bytes" % ec.tag

    # No leaks: the live transports and session map drained to zero.
    assert not server.live and not server.sessions
    assert server.stats["accepts"] == server.stats["teardowns"]
    assert server.stats["pauses"] == 0


@pytest.mark.parametrize("token_mode", [False, True],
                         ids=["cookie", "token"])
def test_retired_session_is_never_resurrected(token_mode):
    sim, topo, cstack, server = _serving_net(7, token_mode=token_mode)
    ec = _EchoClient(sim, cstack, topo, b"A")
    _settle(sim)
    assert ec.client.ready
    assert ec.client.tokens if token_mode else ec.client.cookies

    session = next(iter(server.sessions.values()))
    assert session.outstanding
    server.retire(session)
    assert not server.sessions
    assert not session.outstanding and not server._credentials

    # A join presenting one of the retired session's credentials must
    # be refused (transport aborted), not resurrect the session.
    ec.join(1)
    _settle(sim)
    assert not server.sessions and not server.live
    assert server.stats["accepts"] == server.stats["teardowns"] == 2
    assert len(session.conns) == 1
    assert ec.client.conns[1].state != ATTACHED


def test_handshakes_that_never_attach_leave_no_table_entry():
    """Transports that never attach leave the engine's books too, so
    ``accepts == teardowns``: a client that gives up mid-handshake and
    a ClientHello with a stale cookie both leave no live transport."""
    sim, topo, cstack, server = _serving_net(11)
    p = topo.path(0)
    # Gives up mid-handshake: TCP opens, no ClientHello ever follows.
    quitter = cstack.connect(p.client_addr, Endpoint(p.server_addr, PORT))
    _settle(sim, 0.2)
    assert len(server.live) == 1 and not server.sessions
    quitter.abort()
    _settle(sim, 0.2)
    assert not server.live

    # Stale cookie: a live session, then a join the server refuses.
    ec = _EchoClient(sim, cstack, topo, b"B")
    _settle(sim)
    ec.client.cookies = [b"\x5a" * 16]
    ec.join(1)
    _settle(sim)
    assert len(server.live) == 1 and len(server.sessions) == 1
    ec.client.close()
    _settle(sim)
    assert not server.live and not server.sessions
    assert server.stats["accepts"] == server.stats["teardowns"] == 3
