"""The experiment matrix the bench runner (``runner.py``) executes.

Each point is a plain top-level function returning a JSON-serialisable
metrics dict, so :mod:`repro.perf.matrix` can pickle it by reference
into spawn workers.  Scenario points run scaled-down versions of the
fig8/fig9 simulations (a couple of MiB instead of tens) -- big enough
to exercise handshakes, outages and recovery, small enough that a cold
matrix stays well under a minute.

Every metric here must be bit-deterministic: times come from the
simulator clock, byte counts from stack counters.  Nothing may read
wall-clock time or unseeded randomness.
"""

from common import build_mptcp_upload, build_tcpls_download
from repro.net import Simulator, build_faulty_multipath
from repro.perf import (
    CpuProfile,
    TcplsModel,
    TcplsVariant,
    TlsTcpModel,
    solve_throughput_gbps,
)

POINT_SIZE = 2 << 20
HORIZON = 60.0

#: in-memory AEAD rates (Gbps seal, Gbps open) per cipher suite.  The
#: AES-128-GCM numbers are the paper's own measurements (Sec. 5.1);
#: ChaCha20-Poly1305 has no AES-NI/CLMUL asymmetry, so both directions
#: run at the same software rate on the modelled testbed.
CIPHER_RATES = {
    "aes128gcm": (13.62, 24.59),
    "chacha20poly1305": (10.9, 10.9),
}


def _series_digest(series):
    """Order-sensitive checksum of a goodput series (stable floats)."""
    digest = 0.0
    for t, v in series:
        digest += t * 3.0 + v
    return round(digest, 6)


def fig7_model_point(stack="tcpls", mtu=1500, cipher="aes128gcm",
                     record_size=16384, ack_interval=16):
    """Analytic Fig. 7 throughput for one stack/MTU/cipher combination."""
    seal_gbps, open_gbps = CIPHER_RATES[cipher]
    cpu = CpuProfile(aead_seal_ns_per_byte=8 / seal_gbps,
                     aead_open_ns_per_byte=8 / open_gbps)
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
    else:
        raise ValueError("unknown stack %r" % stack)
    gbps = solve_throughput_gbps(model)
    return {"stack": stack, "mtu": mtu, "cipher": cipher,
            "record_size": record_size, "gbps": round(gbps, 6)}


def fig8_tcpls_point(outage="blackhole", outage_at=0.3, size=POINT_SIZE,
                     seed=8):
    """Scaled-down Fig. 8: TCPLS download through one outage."""
    sim = Simulator(seed=seed)
    topo = build_faulty_multipath(sim, n_paths=2)
    client, sessions, probe, done = build_tcpls_download(sim, topo, size)
    if outage == "blackhole":
        topo.flap_path(0, at=outage_at)
    else:
        topo.rst_path(0, at=outage_at, direction="s2c")
    sim.run(until=HORIZON)
    return {
        "outage": outage,
        "done_at": round(done[0], 9) if done else None,
        "series_digest": _series_digest(probe.series()),
        "bytes_delivered": probe.total,
    }


def fig8_mptcp_point(outage="blackhole", outage_at=0.3, size=POINT_SIZE,
                     seed=8):
    """Scaled-down Fig. 8: MPTCP upload through one outage."""
    sim = Simulator(seed=seed)
    topo = build_faulty_multipath(sim, n_paths=2)
    client, probe, done = build_mptcp_upload(sim, topo, size,
                                             path_manager="backup")
    if outage == "blackhole":
        topo.flap_path(0, at=outage_at)
    else:
        topo.rst_path(0, at=outage_at, direction="c2s")
    sim.run(until=HORIZON)
    return {
        "outage": outage,
        "done_at": round(done[0], 9) if done else None,
        "series_digest": _series_digest(probe.series()),
        "bytes_delivered": probe.total,
    }


def fig9_rotation_point(rotate_every=0.5, size=POINT_SIZE, n_paths=4,
                        seed=9):
    """Scaled-down Fig. 9: rotating single working path."""
    sim = Simulator(seed=seed)
    topo = build_faulty_multipath(sim, n_paths=n_paths,
                                  families=[4, 6, 4, 6])
    client, sessions, probe, done = build_tcpls_download(
        sim, topo, size, uto=None,
        client_kwargs={"join_timeout": 0.5},
    )
    client.auto_user_timeout = 0.25
    topo.rotate_working(rotate_every)
    sim.run(until=HORIZON)
    return {
        "rotate_every": rotate_every,
        "done_at": round(done[0], 9) if done else None,
        "series_digest": _series_digest(probe.series()),
        "bytes_delivered": probe.total,
    }


def c1m_loadgen_point(sessions=400, failover_sessions=8, seed=42):
    """Scaled-down C1M churn run: hundreds of sessions through one
    :class:`~repro.core.drivers.multi.MultiSessionServer`, with joins,
    a mid-transfer path outage and close/reconnect churn.  The full
    10k-session run lives in ``bench_c1m.py``; this point keeps the
    multi-session path in the gated matrix."""
    from repro.perf.loadgen import run_shard

    return run_shard(sessions=sessions,
                     failover_sessions=failover_sessions, seed=seed)


def fluid_scenario_point(scenario="fairness", flows=20_000, seed=42):
    """Scaled-down fluid fast-forward population: the 100k-flow
    scenarios live in ``bench_c1m.py --fluid``; this point keeps the
    closed-form engine in the gated matrix."""
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


def fig8_matrix_point(proto="tcpls", outage="blackhole", outage_at=0.3):
    """Matrix dispatcher over the two Fig. 8 protocol stacks (one
    picklable fn per family; the ``proto`` axis picks the scenario)."""
    if proto == "tcpls":
        return fig8_tcpls_point(outage=outage, outage_at=outage_at)
    if proto == "mptcp":
        return fig8_mptcp_point(outage=outage, outage_at=outage_at)
    raise ValueError("unknown proto %r" % proto)


def default_matrix():
    """The full experiment matrix: scenario x topology x cipher x
    scheduler families expanding to 176 points.

    The point functions are crossed over explicit axes, validity
    predicates drop meaningless combinations (an ``ack_interval`` only
    matters to the failover/multipath variants; a C1M shard cannot fail
    over more sessions than it serves), and every point carries its
    axis assignment into the merged JSON so the gate can group
    regressions by axis value.  fig8/fig9 have no ``seed`` axis: the
    scenarios draw nothing from the RNG, so every seed is the same row.
    """
    from repro.perf import Axis, MatrixSpec, expand_matrix

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
        MatrixSpec(
            "fig8", fig8_matrix_point,
            [Axis("proto", ("tcpls", "mptcp")),
             Axis("outage", ("blackhole", "rst")),
             Axis("at", (0.2, 0.3, 0.45))],
            to_kwargs=lambda c: {
                "proto": c["proto"], "outage": c["outage"],
                "outage_at": c["at"]}),
        MatrixSpec(
            "fig9", fig9_rotation_point,
            [Axis("rotate", (0.35, 0.5, 0.8)),
             Axis("paths", (2, 4))],
            to_kwargs=lambda c: {
                "rotate_every": c["rotate"], "n_paths": c["paths"]}),
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
            "fluid", fluid_scenario_point,
            [Axis("scenario", ("fairness", "incast", "failover_storm")),
             Axis("flows", (2000, 10000))]),
        MatrixSpec(
            "pageload", pageload_point,
            [Axis("stack", ("tcpls", "quic", "mptcp")),
             Axis("policy", ("round-robin", "lowest-rtt", "predictive")),
             Axis("grid", ("clean", "ge-light", "ge-burst"))]),
    ]
    return expand_matrix(specs)

