#!/usr/bin/env python
"""A C1M-style multi-session TCPLS server on real kernel sockets.

One :class:`TcplsServerEngine` — one ``selectors`` event loop —
serves a whole herd of concurrent TCPLS sessions: the engine's books
of live transports (accepts, attaches, teardowns, peak), an O(1)
join-credential map, bounded per-session receive memory with
backpressure (``budget_bytes``), and automatic retirement when a
session's last transport disappears (``auto_retire``).  psk_ke
handshakes (``key_exchange="psk"``) keep the per-session setup cost
flat.

The demo hosts server and a configurable client storm in the same
process over OS loopback: every client handshakes, sends a tagged
request, gets its private echo back, then the close wave leaves no
transport live.

Run:  PYTHONPATH=src python examples/c1m_server.py [n_clients]

For the 10k-session simulated churn run (connect waves, MPJOINs,
scripted path outage + failovers, close/reconnect churn), run the
matrix's scale row: ``python benchmarks/runner.py --points
sessions=10000``.  For worker-process sharding, give each worker its
own listener on ``base_port + i`` (or one shared port with
``SocketDriver(reuse_port=True)``).
"""

import sys

from repro.core.drivers.sockets import SocketDriver
from repro.core.engine import TcplsClientEngine, TcplsServerEngine

PSK = b"c1m-example-psk"


def run_storm(n_clients=50, verbose=True):
    """Returns the server after a full accept/echo/close storm."""
    say = print if verbose else (lambda *a: None)
    driver = SocketDriver(name="c1m", backlog=256)
    try:
        server = TcplsServerEngine(driver, 0, PSK, auto_retire=True,
                                   budget_bytes=256 * 1024)

        def serve(session):
            session.on_stream_data = lambda s: s.send(s.recv())

        server.on_session = serve
        say("[server] listening on 127.0.0.1:%d" % server.port)

        clients, echoes = [], []
        for i in range(n_clients):
            client = TcplsClientEngine(driver, PSK, key_exchange="psk")
            echo = bytearray()
            client.on_stream_data = \
                (lambda buf: lambda s: buf.extend(s.recv()))(echo)
            client.connect(None, driver.endpoint("127.0.0.1", server.port))
            clients.append(client)
            echoes.append(echo)
        driver.run_until(lambda: all(c.ready for c in clients),
                         timeout=60.0)
        say("[server] %d sessions up; live transports=%d (peak %d)"
            % (len(server.sessions), len(server.live),
               server.stats["peak"]))

        payloads = [bytes([i % 251]) * 1024 for i in range(n_clients)]
        for client, payload in zip(clients, payloads):
            stream = client.create_stream(client.conns[0])
            stream.send(payload)
        driver.run_until(
            lambda: all(len(e) == len(p)
                        for e, p in zip(echoes, payloads)),
            timeout=60.0,
        )
        assert all(bytes(e) == p for e, p in zip(echoes, payloads)), \
            "cross-session byte leak"
        say("[server] every session echoed exactly its own bytes")

        for client in clients:
            client.close()
        driver.run_until(
            lambda: not server.sessions and not server.live,
            timeout=60.0,
        )
        say("[server] close wave done: live=%d sessions=%d retired=%d"
            % (len(server.live), len(server.sessions),
               server.stats["retired"]))
        return server
    finally:
        driver.close()


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 50
    run_storm(n)
