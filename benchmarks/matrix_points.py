"""The experiment matrix the bench runner (``runner.py``) executes.

Each point is a plain top-level function returning a JSON-serialisable
metrics dict, so :mod:`repro.perf.matrix` can pickle it by reference
into spawn workers.  A family holds the paper's own cell -- the run the
figure reports, at its size, seed and horizon -- and, for fig7-9,
scaled-down variants across more axes (a couple of MiB instead of
tens) that exercise handshakes, outages and recovery cheaply.  The
``sec51`` and ``ablation`` families hold Sec. 5.1's model results and
the design ablations; the scale rows of ``c1m`` and ``fluid`` run only
when named.  A row carries the summary numbers its claims read
(``claims.py``), not series.

Every metric here must be bit-deterministic: times come from the
simulator clock, byte counts from stack counters.  Nothing may read
wall-clock time or unseeded randomness.
"""

from common import (
    PSK,
    GoodputProbe,
    build_mptcp_upload,
    build_tcpls_download,
    build_tcpls_group_upload,
)
from repro.baselines.quic.impls import IMPL_PROFILES
from repro.core import TcplsClient, TcplsServer
from repro.core.engine.policy import LowestRttScheduler, RoundRobinScheduler
from repro.net import Simulator, build_faulty_multipath, build_multipath
from repro.net.address import Endpoint
from repro.perf import (
    CpuProfile,
    QuicSenderModel,
    TcplsModel,
    TcplsVariant,
    TlsTcpModel,
    solve_throughput_gbps,
)
from repro.tcp import TcpStack

POINT_SIZE = 2 << 20
HORIZON = 60.0

#: in-memory AEAD rates (Gbps seal, Gbps open) per cipher suite.  The
#: AES-128-GCM numbers are the paper's own measurements (Sec. 5.1) and
#: :class:`CpuProfile`'s defaults; ChaCha20-Poly1305 has no
#: AES-NI/CLMUL asymmetry, so both directions run at the same software
#: rate on the modelled testbed.
CIPHER_RATES = {
    "aes128gcm": (13.62, 24.59),
    "chacha20poly1305": (10.9, 10.9),
}

QUIC_IMPLS = ("quicly", "quicly-nogso", "msquic", "mvfst")


def _series_digest(series):
    """Order-sensitive checksum of a goodput series (stable floats)."""
    digest = 0.0
    for t, v in series:
        digest += t * 3.0 + v
    return round(digest, 6)


def _done_at(done):
    return round(done[0], 9) if done else None


def recovery_gap(series, outage_at, threshold=5.0):
    """Seconds from the outage until goodput is back above threshold
    (None if it never is)."""
    stall = None
    for t, v in series:
        if t >= outage_at - 0.3 and v < threshold:
            stall = t
            break
    if stall is None:
        return 0.0
    for t, v in series:
        if t > stall and v >= threshold:
            return round(t - outage_at, 6)
    return None


def stalled_time(series, threshold=1.0):
    """Seconds of probe intervals (0.25 s each) below threshold."""
    return 0.25 * sum(v < threshold for _t, v in series)


def fig7_model_point(stack="tcpls", mtu=1500, cipher="aes128gcm",
                     record_size=16384, ack_interval=16, link_gbps=None):
    """Analytic Fig. 7 throughput for one stack/MTU/cipher combination;
    the QUIC stacks are the implementation profiles, whose encryption
    unit is the datagram, not a record."""
    seal_gbps, open_gbps = CIPHER_RATES[cipher]
    cpu = CpuProfile(aead_seal_ns_per_byte=8 / seal_gbps,
                     aead_open_ns_per_byte=8 / open_gbps)
    row = {"stack": stack, "mtu": mtu, "cipher": cipher,
           "record_size": record_size}
    if stack == "tls-tcp":
        model = TlsTcpModel(cpu, mtu=mtu, record_size=record_size)
    elif stack == "tcpls":
        model = TcplsModel(cpu, mtu=mtu, record_size=record_size)
    elif stack == "tcpls-failover":
        model = TcplsModel(cpu, mtu=mtu, record_size=record_size,
                           variant=TcplsVariant.FAILOVER,
                           ack_interval=ack_interval)
    elif stack == "tcpls-multipath":
        model = TcplsModel(cpu, mtu=mtu, record_size=record_size,
                           variant=TcplsVariant.MULTIPATH,
                           ack_interval=ack_interval)
    elif stack in QUIC_IMPLS:
        model = QuicSenderModel(cpu, IMPL_PROFILES[stack], mtu=mtu)
        del row["record_size"]
    else:
        raise ValueError("unknown stack %r" % stack)
    if link_gbps is not None:
        row["link_gbps"] = link_gbps
    row["gbps"] = round(solve_throughput_gbps(model, link_gbps=link_gbps), 6)
    return row


def fig8_matrix_point(proto="tcpls", outage="blackhole", outage_at=0.3,
                      size=POINT_SIZE, seed=8):
    """Fig. 8: a TCPLS download or an MPTCP upload (backup path
    manager) over two paths, through one blackhole or RST on path 0."""
    sim = Simulator(seed=seed)
    topo = build_faulty_multipath(sim, n_paths=2)
    if proto == "tcpls":
        _client, _sessions, probe, done = build_tcpls_download(sim, topo,
                                                               size)
        direction = "s2c"
    elif proto == "mptcp":
        _client, probe, done = build_mptcp_upload(sim, topo, size,
                                                  path_manager="backup")
        direction = "c2s"
    else:
        raise ValueError("unknown proto %r" % proto)
    if outage == "blackhole":
        topo.flap_path(0, at=outage_at)
    else:
        topo.rst_path(0, at=outage_at, direction=direction)
    sim.run(until=HORIZON)
    series = probe.series()
    return {
        "outage": outage,
        "done_at": _done_at(done),
        "series_digest": _series_digest(series),
        "bytes_delivered": probe.total,
        "recovery_s": recovery_gap(series, outage_at),
    }


def fig9_rotation_point(proto="tcpls", rotate_every=0.5, size=POINT_SIZE,
                        n_paths=4, horizon=HORIZON, seed=9):
    """Fig. 9: one working path at a time, rotating; TCPLS downloads
    with a 0.25 s automatic UTO, MPTCP uploads over a full mesh."""
    sim = Simulator(seed=seed)
    topo = build_faulty_multipath(sim, n_paths=n_paths,
                                  families=[4, 6, 4, 6])
    if proto == "tcpls":
        client, _sessions, probe, done = build_tcpls_download(
            sim, topo, size, uto=None,
            client_kwargs={"join_timeout": 0.5},
        )
        client.auto_user_timeout = 0.25
    elif proto == "mptcp":
        _client, probe, done = build_mptcp_upload(
            sim, topo, size, path_manager="fullmesh", n_paths=n_paths)
    else:
        raise ValueError("unknown proto %r" % proto)
    topo.rotate_working(rotate_every)
    sim.run(until=horizon)
    series = probe.series()
    return {
        "rotate_every": rotate_every,
        "done_at": _done_at(done),
        "series_digest": _series_digest(series),
        "bytes_delivered": probe.total,
        "stalled_s": stalled_time(series),
    }


def fig10_migration_point(size=60 << 20, seed=10):
    """Fig. 10: the server migrates a coupled-group download v4 -> v6 a
    third of the way in and back at two thirds, each time through a
    one-second coupled window in which both paths carry records
    (30 Mbps each, RTT 40 / 80 ms)."""
    rate, window = 30_000_000, 1.0
    sim = Simulator(seed=seed)
    topo = build_multipath(sim, n_paths=2, rates=[rate, rate],
                           delays=[0.020, 0.040])
    cstack, sstack = TcpStack(sim, topo.client), TcpStack(sim, topo.server)
    server = TcplsServer(sim, sstack, 443, psk=PSK)
    client = TcplsClient(sim, cstack, psk=PSK)
    probe = GoodputProbe(sim)
    groups, done, migrations = [], [], []

    def on_session(sess):
        def on_stream_data(stream):
            if stream.recv().startswith(b"GET"):
                group = sess.create_coupled_group([sess.conns[0]])
                groups.append((sess, group))
                group.send(b"V" * size)
                group.close()
        sess.on_stream_data = on_stream_data

    server.on_session = on_session

    def on_group_data(group):
        probe.account(len(group.recv()))
        if group.complete and not done:
            done.append(sim.now)
            probe.stop()

    client.on_group_data = on_group_data

    def on_ready(_session):
        client.create_stream(client.conns[0]).send(b"GET /file")
        client.join(topo.path(1).client_addr)

    client.on_ready = on_ready

    def migrate(to_index):
        if done:
            return
        sess, group = groups[0]
        old_streams = list(group.streams)
        sess.add_group_stream(group, sess.conns[to_index])
        migrations.append(sim.now)
        sim.schedule(window, lambda: [sess.remove_group_stream(group, s)
                                      for s in old_streams])

    expected = size * 8 / rate
    sim.at(1.0 + expected / 3, migrate, 1)
    sim.at(1.0 + 2 * expected / 3, migrate, 0)
    p0 = topo.path(0)
    client.connect(p0.client_addr, Endpoint(p0.server_addr, 443))
    sim.run(until=240)

    series = probe.series()

    def mean(values):
        return round(sum(values) / len(values), 6) if values else 0.0

    peaks = [max([v for t, v in series if t0 <= t <= t0 + window + 0.5],
                 default=0.0) for t0 in migrations]
    between = None
    if len(migrations) == 2:
        start, end = migrations[0] + window + 0.5, migrations[1] - 0.25
        if end - start >= 0.5:
            between = mean([v for t, v in series if start <= t < end])
    return {
        "done_at": _done_at(done),
        "bytes_delivered": probe.total,
        "size": size,
        "migrations": len(migrations),
        "window_peak_mbps": peaks,
        "between_mbps": between,
        "path_mbps": rate / 1e6,
        "tx_bytes": [path.s2c.stats.tx_bytes for path in topo.paths],
    }


def aggregation_point(proto="tcpls", record_size=16384, seed=11):
    """Figs. 11 and 13: a 60 MiB upload starts on one 25 Mbps path and a
    second path becomes usable at t = 5 s: TCPLS joins it and adds it to
    the coupled group at once, MPTCP after the kernel's 1.5 s
    interface-configuration delay.  The aggregated window starts 3 s
    after the second path (clamped to leave 1.5 s before the end)."""
    size, second_path_at, config_delay = 60 << 20, 5.0, 1.5
    sim = Simulator(seed=seed)
    topo = build_multipath(sim, n_paths=2)
    row = {}
    if proto == "tcpls":
        client, _sessions, probe, done = build_tcpls_group_upload(
            sim, topo, size, record_payload=record_size, n_paths=1)

        def attach(conn):
            client.add_group_stream(list(client.groups.values())[0], conn)

        def enable_second_path():
            client.join(topo.path(1).client_addr)
            client.on_join = attach

        sim.at(second_path_at, enable_second_path)
        model = TcplsModel(CpuProfile(), record_size=record_size,
                           variant=TcplsVariant.MULTIPATH)
        row["cpu_ns_per_byte"] = round(model.sender_ns_per_byte(), 6)
    elif proto == "mptcp":
        client, probe, done = build_mptcp_upload(
            sim, topo, size, n_paths=1, config_delay=config_delay)
        sim.at(second_path_at, client.add_local_address,
               topo.path(1).client_addr)
    else:
        raise ValueError("unknown proto %r" % proto)
    sim.run(until=120)
    end = done[0] - 0.25 if done else second_path_at + 15.0
    start = min(second_path_at + 3.0, end - 1.5)
    row.update({
        "done_at": _done_at(done),
        "bytes_delivered": probe.total,
        "before_mbps": round(probe.mean_between(2.0, second_path_at), 6),
        "ramp_mbps": round(probe.mean_between(
            second_path_at, second_path_at + config_delay), 6),
        "mean_mbps": round(probe.mean_between(start, end), 6),
        "stddev_mbps": round(probe.stddev_between(start, end), 6),
    })
    return row


def sec45_establishment_point(mode="cold", seed=45):
    """Sec. 4.5: connect() to session ready and to the first request
    byte at the server, on a 10 ms one-way path.  ``tfo`` resumes with
    TFO + 0-RTT after the cold handshake that earns its cookie and
    ticket, as a returning client does."""
    sim = Simulator(seed=seed)
    topo = build_multipath(sim, n_paths=1, families=[4])
    cstack, sstack = TcpStack(sim, topo.client), TcpStack(sim, topo.server)
    cstack.tfo_enabled = sstack.tfo_enabled = True
    server = TcplsServer(sim, sstack, 443, psk=PSK)
    request_at = []
    server.on_session = lambda sess: setattr(
        sess, "on_stream_data",
        lambda stream: request_at.append(sim.now) if stream.recv()
        else None,
    )
    p = topo.path(0)

    def one(tfo, early_data):
        start = sim.now
        client = TcplsClient(sim, cstack, psk=PSK)
        ready = []
        client.on_ready = lambda s: ready.append(sim.now - start)
        before = len(request_at)
        client.connect(p.client_addr, Endpoint(p.server_addr, 443),
                       tfo=tfo, early_data=early_data)
        if not early_data:
            client.on_ready = lambda s: (
                ready.append(sim.now - start) if not ready else None,
                client.create_stream(client.conns[0]).send(b"GET /"),
            )
        sim.run(until=start + 2.0)
        request = (request_at[before] - start
                   if len(request_at) > before else None)
        client.conns[0].tcp.close()
        sim.run(until=sim.now + 1.0)
        return {"ready_s": round(ready[0], 9) if ready else None,
                "request_s": round(request, 9) if request else None}

    row = one(tfo=False, early_data=b"")
    if mode == "tfo":
        row = one(tfo=True, early_data=b"GET /")
    return row


def _proxy_handshake(sim):
    """A TLS-terminating relay between client and origin: it answers
    the ClientHello itself (no TCPLS) and re-encrypts."""
    from repro.net.address import IPAddress
    from repro.net.host import Host
    from repro.net.link import duplex_link
    from repro.net.proxy import TlsTerminatingProxy

    hosts = [Host(sim, name) for name in ("client", "proxy", "origin")]
    c_addr, fake_server = IPAddress("10.0.0.1"), IPAddress("10.0.0.2")
    p_up, o_addr = IPAddress("10.1.0.1"), IPAddress("10.1.0.2")
    c2p, p2c = duplex_link(sim, hosts[0], hosts[1],
                           rate_bps=25_000_000, delay=0.005)
    p2o, o2p = duplex_link(sim, hosts[1], hosts[2],
                           rate_bps=25_000_000, delay=0.005)
    hosts[0].add_route(fake_server, hosts[0].add_interface(
        "c0", c_addr, tx_link=c2p))
    down = hosts[1].add_interface("p0", fake_server, tx_link=p2c)
    up = hosts[1].add_interface("p1", p_up, tx_link=p2o)
    hosts[1].add_route(c_addr, down)
    hosts[1].add_route(o_addr, up)
    hosts[2].add_route(p_up, hosts[2].add_interface(
        "o0", o_addr, tx_link=o2p))
    cstack, pstack, ostack = (TcpStack(sim, host) for host in hosts)
    TcplsServer(sim, ostack, 443, psk=PSK)
    TlsTerminatingProxy(sim, pstack, 443, Endpoint(o_addr, 443), psk=PSK)
    client = TcplsClient(sim, cstack, psk=PSK)
    client.connect(c_addr, Endpoint(fake_server, 443))
    sim.run(until=5)
    return client


def sec52_middlebox_point(device="clean-path", seed=52):
    """Sec. 5.2: the TCPLS handshake, then a 1,000-byte stream, through
    one modelled middlebox class on path 0 (``clean-path`` is the
    control with none)."""
    from repro.net.address import IPAddress
    from repro.net.middlebox import (
        NAT,
        OptionStrippingFirewall,
        Resegmenter,
        StatefulFirewall,
    )

    sim = Simulator(seed=seed)
    if device == "tls-terminating-proxy":
        client = _proxy_handshake(sim)      # a plain TLS relay: no streams
        return {"connected": client.ready, "tcpls": client.tcpls_enabled,
                "fell_back": client.fell_back, "data_ok": False}
    topo = build_multipath(sim, n_paths=2)
    cstack, sstack = TcpStack(sim, topo.client), TcpStack(sim, topo.server)
    path = topo.path(0)
    server_kwargs = {}
    if device == "stateful-firewall":
        path.c2s.add_middlebox(StatefulFirewall(sim=sim))
        path.s2c.add_middlebox(StatefulFirewall(sim=sim))
    elif device == "option-stripper":
        path.c2s.add_middlebox(OptionStrippingFirewall())
        path.s2c.add_middlebox(OptionStrippingFirewall())
    elif device == "nat":
        nat = NAT(IPAddress("198.51.100.1"))
        path.c2s.add_middlebox(nat.outbound)
        path.s2c.add_middlebox(nat.inbound)
        topo.server.add_route(IPAddress("198.51.100.1"),
                              topo.server.interfaces[0])
    elif device == "resegmenter":
        path.c2s.add_middlebox(Resegmenter(chunk=536))
    elif device == "legacy-strict-server":
        server_kwargs = {"enable_tcpls": False, "strict_extensions": True}
    elif device != "clean-path":
        raise ValueError("unknown device %r" % device)

    server = TcplsServer(sim, sstack, 443, psk=PSK, **server_kwargs)
    received = bytearray()
    server.on_session = lambda sess: setattr(
        sess, "on_stream_data", lambda st: received.extend(st.recv()))
    client = TcplsClient(sim, cstack, psk=PSK)
    client.connect(path.client_addr, Endpoint(path.server_addr, 443))
    sim.run(until=5)
    data_ok = False
    if client.ready and client.tcpls_enabled:
        client.create_stream(client.conns[0]).send(b"probe" * 200)
        sim.run(until=sim.now + 2)
        data_ok = bytes(received).endswith(b"probe" * 200)
    return {"connected": client.ready, "tcpls": client.tcpls_enabled,
            "fell_back": client.fell_back, "data_ok": data_ok}


def table1_features_point(proto="tcpls"):
    """Table 1: one protocol's transport services, derived by
    introspecting what its implementation exposes (True, False or
    "partial" where the service is there only in part)."""
    from repro.baselines.mptcp import MptcpConnection
    from repro.baselines.quic.connection import QuicConnection
    from repro.core import TcplsEngine
    from repro.core.engine.failover import Failover
    from repro.tcp.connection import TcpConnection
    from repro.tls.endpoint import _TlsEndpoint

    def has(cls, *names):
        return all(hasattr(cls, name) for name in names)

    keys = ("reliability", "conf_auth", "failover", "hol_avoidance",
            "streams", "migration", "concurrent_paths")
    rows = {
        "tcp": (has(TcpConnection, "_retransmit_lost", "_on_rto"),
                False, False, False, False, False, False),
        # one data sequence space; path managers, not app-driven moves
        "mptcp": (True, False, has(MptcpConnection, "_end_subflow"),
                  False, False, "partial",
                  has(MptcpConnection, "_pick_subflow")),
        "tls-tcp": (True, has(_TlsEndpoint, "send_application_data"),
                    False, False, False, False, False),
        # migration is not app-triggered in the implementations
        "quic": (has(QuicConnection, "_detect_losses"), True, "partial",
                 has(QuicConnection, "open_stream"), True, "partial",
                 False),
        # HoL avoidance is per stream, unless the streams are coupled
        "tcpls": (True, True, has(Failover, "fail", "_replay"),
                  "partial", has(TcplsEngine, "create_stream"),
                  has(TcplsEngine, "steer_stream", "add_group_stream"),
                  has(TcplsEngine, "create_coupled_group")),
    }
    return dict(zip(keys, rows[proto]), proto=proto)


def c1m_loadgen_point(sessions=400, failover_sessions=8, seed=42):
    """C1M churn run: ``sessions`` sessions through one
    :class:`~repro.core.engine.server.TcplsServerEngine`, with joins,
    a mid-transfer path outage and close/reconnect churn.  Hundreds of
    sessions keep the multi-session path in the gated matrix; the
    10k-session acceptance run, in one process, is a scale row."""
    from repro.perf.loadgen import run_shard

    return run_shard(sessions=sessions,
                     failover_sessions=failover_sessions, seed=seed)


def fluid_scenario_point(scenario="fairness", flows=20_000, seed=42):
    """Fluid fast-forward population: thousands of flows keep the
    closed-form engine in the gated matrix; the 100k-flow populations
    are scale rows."""
    from repro.perf.loadgen import run_fluid_scenario

    metrics = run_fluid_scenario(scenario=scenario, flows=flows,
                                 seed=seed)
    metrics.pop("links", None)     # bulky and redundant under the gate
    return metrics


def pageload_point(stack="tcpls", policy="round-robin", grid="ge-light",
                   seed=42):
    """Scaled-down page-load cell: a synthetic page burst over one
    stack under one scheduling policy on a Gilbert-Elliott loss grid;
    it keeps the workload layer (pool, transfer manager,
    assign_transfer decisions) in the gated matrix."""
    from repro.perf.pageload import run_pageload_cell

    return run_pageload_cell(stack=stack, policy=policy, grid=grid,
                             pages=3, waves=2, n_objects=12,
                             horizon=60.0, seed=seed)


def sec51_receive_point(buffers="tuned"):
    """Sec. 5.1: tuning picotls's receive buffers -- no fragmented
    record re-staged through intermediate buffers -- gained ~40 %
    client throughput.  The untuned receiver pays 17 extra byte-copies
    per byte in the cost model, which reproduces the measured gap."""
    extra_copies = {"tuned": 0, "untuned": 17}[buffers]
    model = TlsTcpModel(CpuProfile(), mtu=1500, extra_copies=extra_copies)
    return {"extra_copies": extra_copies,
            "gbps": round(8.0 / model.receiver_ns_per_byte(), 6)}


def sec51_aead_point(aead="aes128gcm"):
    """Sec. 5.1's in-memory AES-128-GCM rates on 16,384-byte records:
    the cost model's anchors, and the ceiling the fastest TLS/TCP cell
    (9,000-byte MTU) stays under."""
    cpu = CpuProfile()
    return {
        "seal_gbps": round(8.0 / cpu.aead_seal_ns_per_byte, 6),
        "open_gbps": round(8.0 / cpu.aead_open_ns_per_byte, 6),
        "tls_tcp_jumbo_gbps": round(
            solve_throughput_gbps(TlsTcpModel(cpu, mtu=9000)), 6),
    }


def ablation_framing_point(layout="end-of-record", record_size=16384):
    """Sec. 3.1's zero-copy argument: the payload bytes a receiver moves
    to hand one record's payload on as the prefix of a buffer.
    End-of-record control leaves the payload as the receive buffer's
    prefix (``decode_inner(zero_copy=True)``); header-first framing puts
    it after the control block, so the receiver copies it out.  Bytes
    are counted, not timed: after the decode the receive buffer is
    zeroed, and every payload byte that keeps its value was moved."""
    from repro.core.record import (
        RECORD_TYPE_STREAM_DATA,
        TcplsRecord,
        decode_inner,
        encode_inner,
    )

    payload = b"\x99" * record_size
    control = b"\x01" + bytes(8)
    if layout == "end-of-record":
        buffer = bytearray(encode_inner(RECORD_TYPE_STREAM_DATA, payload,
                                        control))
        record = decode_inner(buffer, zero_copy=True)
    elif layout == "header-first":
        buffer = bytearray([RECORD_TYPE_STREAM_DATA, len(control)])
        buffer += control + payload
        start = 2 + buffer[1]
        record = TcplsRecord(buffer[0], bytes(buffer[start:]),
                             bytes(buffer[2:start]))
    else:
        raise ValueError("unknown layout %r" % layout)
    payload_ok = bytes(record.payload) == payload
    buffer[:] = bytes(len(buffer))
    return {"record_size": record_size, "payload_ok": payload_ok,
            "bytes_moved": bytes(record.payload).count(payload[0])}


def ablation_demux_point(order="sequential", streams=4, seed=21):
    """Footnote 2: tag trials per record when ``streams`` streams share
    one connection, each sent whole (``sequential``) or 4,000 bytes at a
    time round the streams (``interleaved``, the receiver's worst
    case)."""
    sim = Simulator(seed=seed)
    topo = build_multipath(sim, n_paths=1, families=[4])
    cstack, sstack = TcpStack(sim, topo.client), TcpStack(sim, topo.server)
    server = TcplsServer(sim, sstack, 443, psk=PSK)
    sessions = []
    server.on_session = lambda s: (
        sessions.append(s), setattr(s, "on_stream_data", lambda st: st.recv())
    )
    client = TcplsClient(sim, cstack, psk=PSK)
    p = topo.path(0)
    client.connect(p.client_addr, Endpoint(p.server_addr, 443))
    sim.run(until=0.2)
    opened = [client.create_stream(client.conns[0]) for _ in range(streams)]
    chunk, rounds = 4000, 60
    if order == "interleaved":
        for _ in range(rounds):
            for stream in opened:
                stream.send(b"i" * chunk)
    elif order == "sequential":
        for stream in opened:
            stream.send(b"s" * (chunk * rounds))
    else:
        raise ValueError("unknown order %r" % order)
    sim.run(until=20)
    stats = sessions[0].stats
    return {
        "tag_trials": stats["tag_trials"],
        "records_received": stats["records_received"],
        "trials_per_record": round(
            stats["tag_trials"] / max(stats["records_received"], 1), 6),
    }


def ablation_ack_interval_point(interval=16, size=8 << 20, seed=22):
    """The record-ACK interval the paper leaves as future work, live: an
    8 MiB upload with failover on, one record ACK every ``interval``
    records, on one uncongested path."""
    sim = Simulator(seed=seed)
    topo = build_multipath(sim, n_paths=1, families=[4])
    cstack, sstack = TcpStack(sim, topo.client), TcpStack(sim, topo.server)
    server = TcplsServer(sim, sstack, 443, psk=PSK, ack_interval=interval)
    sessions, done = [], []

    def on_session(sess):
        sessions.append(sess)
        sess.enable_failover()
        state = {"got": 0}

        def on_stream_data(stream):
            state["got"] += len(stream.recv())
            if state["got"] >= size and not done:
                done.append(sim.now)
        sess.on_stream_data = on_stream_data

    server.on_session = on_session
    client = TcplsClient(sim, cstack, psk=PSK, ack_interval=interval)
    p = topo.path(0)

    def on_ready(_s):
        stream = client.create_stream(client.conns[0])
        stream.send(b"a" * size)
        stream.close()

    client.on_ready = on_ready
    client.connect(p.client_addr, Endpoint(p.server_addr, 443))
    sim.run(until=60)
    return {"done_at": _done_at(done),
            "acks_sent": sessions[0].stats["acks_sent"]}


SCHEDULERS = {"round-robin": RoundRobinScheduler,
              "lowest-rtt": LowestRttScheduler}


def ablation_scheduler_point(scheduler="round-robin", seed=23):
    """Record schedulers on asymmetric paths (the paper ships
    round-robin and leaves others to the application): an 8 MiB
    coupled upload over a 10 ms and a 100 ms RTT path."""
    sim = Simulator(seed=seed)
    topo = build_multipath(sim, n_paths=2,
                           rates=[25_000_000, 25_000_000],
                           delays=[0.005, 0.050])
    _client, _sessions, _probe, done = build_tcpls_group_upload(
        sim, topo, 8 << 20, n_paths=2, scheduler=SCHEDULERS[scheduler]())
    sim.run(until=60)
    return {"done_at": _done_at(done)}


def matrix():
    """Every point of the experiment matrix: scenario x topology x
    cipher x scheduler families expanding to 224 points -- 35 of them
    the paper's own cells, 3 its Sec. 5.1 model results, 10 the design
    ablations -- plus four scale points (the 10k-session C1M run and the
    100k-flow fluid populations) that a run executes only when a
    pattern names them (:func:`repro.perf.filter_points`).

    The point functions are crossed over explicit axes, validity
    predicates drop meaningless combinations (an ``ack_interval`` only
    matters to the failover/multipath variants; a C1M shard cannot fail
    over more sessions than it serves), and every point carries its
    axis assignment into the merged JSON so the gate can group
    regressions by axis value.  A family's paper cell is a second spec
    of that family, so no other row's name changes.  fig8/fig9 have no
    ``seed`` axis: the scenarios draw nothing from the RNG, so every
    seed is the same row.
    """
    from repro.perf import Axis, MatrixSpec, expand_matrix

    protos = Axis("proto", ("tcpls", "mptcp"))
    specs = [
        MatrixSpec(
            "fig7", fig7_model_point,
            [Axis("stack", ("tls-tcp", "tcpls", "tcpls-failover",
                            "tcpls-multipath")),
             Axis("mtu", (1500, 9000)),
             Axis("cipher", ("aes128gcm", "chacha20poly1305")),
             Axis("recsize", (1024, 2048, 4096, 8192, 16384)),
             Axis("ack", (8, 16))],
            # Record-ACK spacing only exists once the failover machinery
            # is on; keep the default (16) for the plain stacks.
            valid=lambda c: c["ack"] == 16 or c["stack"] in (
                "tcpls-failover", "tcpls-multipath"),
            to_kwargs=lambda c: {
                "stack": c["stack"], "mtu": c["mtu"],
                "cipher": c["cipher"], "record_size": c["recsize"],
                "ack_interval": c["ack"]}),
        MatrixSpec("fig7", fig7_model_point,
                   [Axis("stack", QUIC_IMPLS), Axis("mtu", (1500, 9000))]),
        # On a 1 Gbps NIC the CPU differences vanish.
        MatrixSpec("fig7", fig7_model_point,
                   [Axis("stack", ("tcpls", "quicly")), Axis("mtu", (1500,)),
                    Axis("link", (1.0,))],
                   to_kwargs=lambda c: {"stack": c["stack"], "mtu": c["mtu"],
                                        "link_gbps": c["link"]}),
        MatrixSpec(
            "fig8", fig8_matrix_point,
            [protos, Axis("outage", ("blackhole", "rst")),
             Axis("at", (0.2, 0.3, 0.45))],
            to_kwargs=lambda c: {
                "proto": c["proto"], "outage": c["outage"],
                "outage_at": c["at"]}),
        MatrixSpec(
            "fig8", fig8_matrix_point,
            [protos, Axis("outage", ("blackhole", "rst")), Axis("at", (3.0,))],
            to_kwargs=lambda c: {
                "proto": c["proto"], "outage": c["outage"],
                "outage_at": c["at"]},
            fixed={"size": 40 << 20}),
        MatrixSpec(
            "fig9", fig9_rotation_point,
            [Axis("rotate", (0.35, 0.5, 0.8)),
             Axis("paths", (2, 4))],
            to_kwargs=lambda c: {
                "rotate_every": c["rotate"], "n_paths": c["paths"]}),
        MatrixSpec(
            "fig9", fig9_rotation_point,
            [protos, Axis("rotate", (5.0,)), Axis("paths", (4,))],
            to_kwargs=lambda c: {
                "proto": c["proto"], "rotate_every": c["rotate"],
                "n_paths": c["paths"]},
            fixed={"size": 60 << 20, "horizon": 120.0}),
        MatrixSpec("fig10", fig10_migration_point, [Axis("mib", (60,))],
                   to_kwargs=lambda c: {"size": c["mib"] << 20}),
        MatrixSpec("fig11", aggregation_point, [protos],
                   fixed={"seed": 11}),
        MatrixSpec("fig13", aggregation_point,
                   [Axis("records", (16384, 1500))],
                   to_kwargs=lambda c: {"record_size": c["records"]},
                   fixed={"seed": 13}),
        MatrixSpec("sec45", sec45_establishment_point,
                   [Axis("mode", ("cold", "tfo"))]),
        MatrixSpec("sec52", sec52_middlebox_point,
                   [Axis("device", ("clean-path", "stateful-firewall",
                                    "option-stripper", "nat",
                                    "resegmenter", "tls-terminating-proxy",
                                    "legacy-strict-server"))]),
        MatrixSpec("table1", table1_features_point,
                   [Axis("proto", ("tcp", "mptcp", "tls-tcp", "quic",
                                   "tcpls"))]),
        MatrixSpec(
            "c1m", c1m_loadgen_point,
            [Axis("sessions", (120, 240)),
             Axis("failover", (0, 8, 24))],
            # A shard cannot meaningfully fail over more than a tenth
            # of its population mid-run.
            valid=lambda c: c["failover"] * 10 <= c["sessions"],
            to_kwargs=lambda c: {
                "sessions": c["sessions"],
                "failover_sessions": c["failover"]}),
        MatrixSpec(
            "c1m", c1m_loadgen_point,
            [Axis("sessions", (10000,)), Axis("failover", (16,))],
            to_kwargs=lambda c: {
                "sessions": c["sessions"],
                "failover_sessions": c["failover"]},
            scale=True),
        MatrixSpec(
            "fluid", fluid_scenario_point,
            [Axis("scenario", ("fairness", "incast", "failover_storm")),
             Axis("flows", (2000, 10000))]),
        MatrixSpec(
            "fluid", fluid_scenario_point,
            [Axis("scenario", ("fairness", "incast", "failover_storm")),
             Axis("flows", (100_000,))],
            scale=True),
        MatrixSpec(
            "pageload", pageload_point,
            [Axis("stack", ("tcpls", "quic", "mptcp")),
             Axis("policy", ("round-robin", "lowest-rtt", "predictive")),
             Axis("grid", ("clean", "ge-light", "ge-burst"))]),
        MatrixSpec("sec51", sec51_receive_point,
                   [Axis("buffers", ("tuned", "untuned"))]),
        MatrixSpec("sec51", sec51_aead_point, [Axis("aead", ("aes128gcm",))]),
        MatrixSpec("ablation", ablation_framing_point,
                   [Axis("framing", ("end-of-record", "header-first"))],
                   to_kwargs=lambda c: {"layout": c["framing"]}),
        MatrixSpec("ablation", ablation_demux_point,
                   [Axis("demux", ("sequential", "interleaved")),
                    Axis("streams", (4, 8))],
                   valid=lambda c: c["demux"] == "interleaved"
                   or c["streams"] == 4,
                   to_kwargs=lambda c: {"order": c["demux"],
                                        "streams": c["streams"]}),
        MatrixSpec("ablation", ablation_ack_interval_point,
                   [Axis("ack_interval", (2, 16, 64))],
                   to_kwargs=lambda c: {"interval": c["ack_interval"]}),
        MatrixSpec("ablation", ablation_scheduler_point,
                   [Axis("scheduler", tuple(SCHEDULERS))]),
    ]
    return expand_matrix(specs)


def default_matrix():
    """The points a run without ``--points`` executes: every point but
    the scale ones.  The committed envelope holds exactly these."""
    from repro.perf import filter_points

    return filter_points(matrix(), None)
