"""The sans-I/O engine over stub transports: record/replay determinism.

These tests never touch the simulator or sockets: two engines are
bootstrapped post-handshake over :class:`ReplayTransport` doubles and
exchange real sealed records by shuttling bytes between them.  The
input log captured on one run then replays into a fresh engine and
must reproduce identical state -- the debugging workflow the
engine/driver split unlocks.
"""

import pytest

from repro.core.drivers import StubDriver, bootstrap_ready_session
from repro.core.engine import InputLog
from repro.core.errors import SessionNotReadyError, TcplsError


def make_pair():
    client, cconn = bootstrap_ready_session(is_client=True)
    server, sconn = bootstrap_ready_session(is_client=False)
    return client, cconn, server, sconn


def shuttle(a_conn, b, b_conn):
    """Deliver everything a wrote to b (one direction)."""
    wire = a_conn.tcp.take_sent()
    if wire:
        b.bytes_received(b_conn, wire)
    return wire


class TestStubEngine:
    def test_stream_data_crosses_stub_transports(self):
        client, cconn, server, sconn = make_pair()
        stream = client.create_stream(cconn)
        stream.send(b"engine bytes with no I/O underneath")
        shuttle(cconn, server, sconn)
        delivered = [s for s in server.streams.values()
                     if bytes(s.recv_buffer)]
        assert len(delivered) == 1
        assert bytes(delivered[0].recv_buffer) == \
            b"engine bytes with no I/O underneath"

    def test_bidirectional_exchange(self):
        client, cconn, server, sconn = make_pair()
        cstream = client.create_stream(cconn)
        cstream.send(b"ping over records")
        shuttle(cconn, server, sconn)
        sstream = next(s for s in server.streams.values()
                       if bytes(s.recv_buffer))
        sstream.send(b"pong over records")
        shuttle(sconn, client, cconn)
        assert bytes(cstream.recv_buffer) == b"pong over records"

    def test_not_ready_raises_typed_error(self):
        driver = StubDriver()
        from repro.core.engine import TcplsEngine

        engine = TcplsEngine(driver, is_client=True)
        with pytest.raises(SessionNotReadyError):
            engine.create_stream(None)
        with pytest.raises(TcplsError):      # same exception, base class
            engine.enable_failover()
        with pytest.raises(RuntimeError):    # legacy catch still works
            engine.create_coupled_group([])


class TestInputReplay:
    def test_log_captures_external_inputs(self):
        client, cconn, server, sconn = make_pair()
        server.input_log = InputLog()
        stream = client.create_stream(cconn)
        stream.send(b"x" * 40_000)   # several records
        shuttle(cconn, server, sconn)
        kinds = {entry[1] for entry in server.input_log}
        assert kinds == {"bytes"}
        assert len(server.input_log) >= 1

    def test_replay_reproduces_session_state(self):
        client, cconn, server, sconn = make_pair()
        server.input_log = InputLog()
        stream = client.create_stream(cconn)
        stream.send(b"deterministic " * 1000)
        stream.close()
        shuttle(cconn, server, sconn)
        log = server.input_log

        replayed, _rconn = bootstrap_ready_session(is_client=False)
        log.replay_into(replayed)

        def state(engine):
            return {
                sid: (bytes(s.recv_buffer), s.fin_received)
                for sid, s in engine.streams.items()
            }

        assert state(replayed) == state(server)
        assert replayed.stats["records_received"] == \
            server.stats["records_received"]
        assert replayed.stats["tag_trials"] == server.stats["tag_trials"]

    def test_replay_covers_failure_events(self):
        client, cconn, _server, _sconn = make_pair()
        client.input_log = InputLog()
        client.conn_failed(cconn, "rst")
        log = client.input_log

        replayed, rconn = bootstrap_ready_session(is_client=True)
        log.replay_into(replayed)
        assert rconn.failed
        assert not rconn.alive

    def test_replay_runs_the_stub_clock_to_each_entry(self):
        server, sconn = bootstrap_ready_session(is_client=False)
        fired = []
        server.clock.schedule(1.0, lambda: fired.append(server.clock.now))
        server.clock.schedule(2.0, lambda: fired.append(server.clock.now))
        log = InputLog()
        log.record(1.25, "writable", sconn.conn_id, None)
        log.replay_into(server)
        assert fired == [1.0]   # the due timer fired at its deadline
        assert server.clock.now == 1.25

    def test_replay_unknown_conn_id_raises(self):
        server, _sconn = bootstrap_ready_session(is_client=False)
        log = InputLog()
        log.record(0.0, "bytes", 999, b"zz")
        with pytest.raises(TcplsError):
            log.replay_into(server)
