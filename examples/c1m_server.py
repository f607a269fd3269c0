#!/usr/bin/env python
"""A C1M-style multi-session TCPLS server on real kernel sockets.

One :class:`MultiSessionServer` — one ``selectors`` event loop —
serves a whole herd of concurrent TCPLS sessions: an fd-keyed
connection table (libconvert's ``_tcpls_lookup`` shape), an O(1)
join-credential cache, bounded per-session receive memory with
backpressure, and automatic retirement when a session's last
transport disappears.  psk_ke handshakes (``key_exchange="psk"``)
keep the per-session setup cost flat.

The demo hosts server and a configurable client storm in the same
process over OS loopback: every client handshakes, sends a tagged
request, gets its private echo back, then the close wave drains the
table back to zero.

Run:  PYTHONPATH=src python examples/c1m_server.py [n_clients]

For the 10k-session simulated churn run (connect waves, MPJOINs,
scripted path outage + failovers, close/reconnect churn), run the
matrix's scale row: ``python benchmarks/runner.py --points
sessions=10000``.  For worker-process sharding, give each worker its
own listener on ``base_port + i`` (or one shared port with
``SocketDriver(reuse_port=True)``).
"""

import sys

from repro.core.drivers.multi import MultiSessionServer
from repro.core.drivers.sockets import SocketDriver
from repro.core.engine import TcplsClientEngine

PSK = b"c1m-example-psk"


def run_storm(n_clients=50, verbose=True):
    """Returns the mux after a full accept/echo/close storm."""
    say = print if verbose else (lambda *a: None)
    driver = SocketDriver(name="c1m", backlog=256)
    try:
        mux = MultiSessionServer(driver, 0, PSK, auto_retire=True,
                                 budget_bytes=256 * 1024)

        def serve(session):
            session.on_stream_data = lambda s: s.send(s.recv())

        mux.on_session = serve
        say("[mux] listening on 127.0.0.1:%d" % mux.port)

        clients, echoes = [], []
        for i in range(n_clients):
            client = TcplsClientEngine(driver, PSK, key_exchange="psk")
            echo = bytearray()
            client.on_stream_data = \
                (lambda buf: lambda s: buf.extend(s.recv()))(echo)
            client.connect(None, driver.endpoint("127.0.0.1", mux.port))
            clients.append(client)
            echoes.append(echo)
        driver.run_until(lambda: all(c.ready for c in clients),
                         timeout=60.0)
        say("[mux] %d sessions up; table=%d (peak %d)"
            % (mux.session_count(), len(mux.table), mux.table.peak))

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
        say("[mux] every session echoed exactly its own bytes")

        for client in clients:
            client.close()
        driver.run_until(
            lambda: mux.session_count() == 0 and len(mux.table) == 0,
            timeout=60.0,
        )
        say("[mux] close wave done: table=%d sessions=%d retired=%d"
            % (len(mux.table), mux.session_count(), mux.retired))
        return mux
    finally:
        driver.close()


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 50
    run_storm(n)
