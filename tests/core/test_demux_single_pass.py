"""Stream demux costs one MAC pass per record, whatever the trial count.

A record that no (stream, seq) candidate accepts -- a forgery, or a
failover replay of something already delivered -- used to be re-MACed in
full for every candidate.  The receiver now folds the record once and
every candidate only finishes the tag; the *number* of trials, and every
counter derived from it, is unchanged.
"""

import pytest

from helpers import connect_tcpls, make_net, tcpls_pair

from repro.tls.record import encode_record_header

RECORD = 16384


def count_mac_passes(cipher):
    """Record the length of every ``mac_state`` pass ``cipher`` makes."""
    passes = []
    inner = cipher.mac_state

    def counted(ciphertext, aad):
        passes.append(len(ciphertext))
        return inner(ciphertext, aad)

    cipher.mac_state = counted
    return passes


def three_stream_session(cipher_name):
    """A server session with a control stream and two data streams, all
    of which have received data."""
    sim, topo, cstack, sstack = make_net()
    kwargs = {"cipher_names": (cipher_name,)}
    client, server, sessions = tcpls_pair(
        sim, topo, cstack, sstack, client_kwargs=kwargs,
        server_kwargs=kwargs)
    conn = connect_tcpls(sim, topo, client)
    for _ in range(2):
        client.create_stream(conn).send(b"warm-up")
    sim.run(until=sim.now + 0.3)
    session = sessions[0]
    assert len(session.streams) == 3
    return sim, client, session


@pytest.mark.parametrize("cipher_name", ["aes128gcm", "null-tag"])
def test_undecryptable_record_costs_one_pass(cipher_name):
    sim, client, session = three_stream_session(cipher_name)
    passes = count_mac_passes(session._recv_key)
    forged = encode_record_header(23, RECORD + 16) + b"\x5A" * (RECORD + 16)
    before = dict(session.stats)
    per_stream = {s.stream_id: s.ctx_recv.tag_trials
                  for s in session.streams.values()}

    session._process_record(session.conns[0], forged)

    assert passes == [RECORD]
    # the trials all still happen: every stream's primary sequence, then
    # the rest of every stream's window
    window = session.trial_window
    assert session.stats["tag_trials"] - before["tag_trials"] == 3 * window
    for stream in session.streams.values():
        assert stream.ctx_recv.tag_trials - per_stream[stream.stream_id] \
            == window
    assert session.stats["demux_drops"] == before["demux_drops"] + 1
    assert session.stats["demux_fallbacks"] == before["demux_fallbacks"]
    assert session.stats["bytes_opened"] == before["bytes_opened"]


@pytest.mark.parametrize("cipher_name", ["aes128gcm", "null-tag"])
def test_accepted_record_costs_one_pass(cipher_name):
    """verify + decrypt share the pass: no re-authentication on accept."""
    sim, client, session = three_stream_session(cipher_name)
    passes = count_mac_passes(session._recv_key)
    received = bytearray()
    session.on_stream_data = lambda st: received.extend(st.recv())
    before = session.stats["records_received"]
    stream = next(s for s in client.streams.values() if s.stream_id % 2)
    stream.send(b"q" * 3000)
    sim.run(until=sim.now + 0.3)
    assert bytes(received).endswith(b"q" * 3000)
    assert len(passes) == session.stats["records_received"] - before >= 1


def test_short_record_is_a_drop_not_an_exception():
    sim, client, session = three_stream_session("null-tag")
    drops = session.stats["demux_drops"]
    for runt in (b"", b"\x17\x03", encode_record_header(23, 4) + b"abcd"):
        session._process_record(session.conns[0], runt)
    assert session.stats["demux_drops"] == drops + 3


def test_replayed_duplicate_triggers_rate_limited_reack():
    sim, topo, cstack, sstack = make_net()
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    conn = connect_tcpls(sim, topo, client)
    client.enable_failover()
    sim.run(until=sim.now + 0.1)
    session = sessions[0]
    assert session.failover_enabled
    seen = []
    process = session._process_record

    def capture(conn, record_bytes):
        seen.append(bytes(record_bytes))
        process(conn, record_bytes)

    session._process_record = capture
    client.create_stream(conn).send(b"d" * (4 * RECORD))
    sim.run(until=sim.now + 0.5)
    session._process_record = process
    duplicate = max(seen, key=len)
    assert len(duplicate) > RECORD

    acks = session.stats["acks_sent"]
    drops = session.stats["demux_drops"]
    passes = count_mac_passes(session._recv_key)
    session._process_record(session.conns[0], duplicate)
    assert session.stats["demux_drops"] == drops + 1
    assert session.stats["acks_sent"] == acks + 1
    # a burst of duplicates is answered once per 50 ms, not per record
    session._process_record(session.conns[0], duplicate)
    assert session.stats["demux_drops"] == drops + 2
    assert session.stats["acks_sent"] == acks + 1
    sim.run(until=sim.now + 0.06)
    session._process_record(session.conns[0], duplicate)
    assert session.stats["acks_sent"] == acks + 2
    assert len(passes) == 3


def reference_candidates(session, conn):
    """The trial order rebuilt from scratch (the pre-cache algorithm)."""
    seen = set()
    order = []
    for stream in (conn.last_stream, conn.control_stream):
        if stream is not None and stream.stream_id not in seen:
            order.append(stream)
            seen.add(stream.stream_id)
    for on_conn in (True, False):
        for stream in session.streams.values():
            if stream.stream_id not in seen and \
                    (stream.connection is conn or not on_conn):
                order.append(stream)
                seen.add(stream.stream_id)
    return order


def check_candidate_order(session, checked):
    """Compare every cached order ``session`` uses with a rebuild."""
    cached = session._demux_candidates

    def checking(conn):
        order = cached(conn)
        assert list(order) == reference_candidates(session, conn)
        checked.append(len(order))
        return order

    session._demux_candidates = checking


def test_cached_candidate_order_tracks_joins_and_steering():
    sim, topo, cstack, sstack = make_net()
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    connect_tcpls(sim, topo, client)
    checked = []
    check_candidate_order(client, checked)
    check_candidate_order(sessions[0], checked)
    received = bytearray()
    sessions[0].on_stream_data = lambda st: received.extend(st.recv())
    client.join(topo.path(1).client_addr)
    sim.run(until=sim.now + 0.3)
    a = client.create_stream(client.conns[0])
    b = client.create_stream(client.conns[1])
    for target in (1, 0, 1):
        a.send(b"a" * 40000)
        b.send(b"b" * 40000)
        sim.run(until=sim.now + 0.2)
        client.steer_stream(a, client.conns[target])
    a.send(b"a" * 40000)
    sim.run(until=sim.now + 0.5)
    assert len(received) == 7 * 40000
    assert sessions[0].stats["demux_fallbacks"] > 0
    assert len(checked) >= 20 and max(checked) == 4


def test_cached_candidate_order_tracks_failover():
    """Blackhole, UTO, join on the other path, SYNC, replay (Fig. 8)."""
    sim, topo, cstack, sstack = make_net()
    client, server, sessions = tcpls_pair(sim, topo, cstack, sstack)
    size = 1 << 20
    checked = []
    received = bytearray()

    def on_session(session):
        sessions.append(session)
        session.enable_failover()
        check_candidate_order(session, checked)

        def on_request(stream):
            if stream.recv().startswith(b"GET"):
                out = session.create_stream(session.conns[0])
                out.send(b"F" * size)
                out.close()
        session.on_stream_data = on_request

    server.on_session = on_session
    check_candidate_order(client, checked)
    client.on_stream_data = lambda st: received.extend(st.recv())
    connect_tcpls(sim, topo, client)
    client.set_user_timeout(client.conns[0], 0.25)
    client.create_stream(client.conns[0]).send(b"GET /file")
    topo.path(0).blackhole(sim, 0.3)
    sim.run(until=10)
    assert bytes(received) == b"F" * size
    assert client.stats["failovers"] >= 1
    assert client.stats["demux_drops"] > 0      # replayed duplicates
    assert len(checked) > 100
