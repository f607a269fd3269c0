"""Fig. 8: recovery delay after a single outage, TCPLS vs MPTCP.

Two disjoint paths (25 Mbps / 10 ms), backup-style second path.  At
t = 3 s the active path either blackholes or receives a spurious RST.
The figure is the goodput-over-time series; the numbers that matter are
the recovery gaps.

Outages are driven through the deterministic fault layer
(:mod:`repro.net.scenario` via :class:`MultipathTopology`), so two runs
with the same seed replay the identical failure and produce identical
metrics — ``tests/net/test_bench_scenarios.py`` asserts that.
"""

from conftest import run_once

from common import (
    banner,
    build_mptcp_upload,
    build_tcpls_download,
    fmt_series,
    maybe_trace,
    scaled,
)
from repro.net import Simulator, build_faulty_multipath

SIZE = scaled(40 << 20)
OUTAGE_AT = 3.0


def recovery_gap(series, outage_at=OUTAGE_AT, threshold=5.0):
    """Seconds from the outage until goodput is back above threshold."""
    stall = None
    for t, v in series:
        if t >= outage_at - 0.3 and v < threshold:
            stall = t
            break
    if stall is None:
        return 0.0
    for t, v in series:
        if t > stall and v >= threshold:
            return t - outage_at
    return float("inf")


def run_tcpls(outage, outage_at=None):
    outage_at = OUTAGE_AT if outage_at is None else outage_at
    sim = Simulator(seed=8)
    topo = build_faulty_multipath(sim, n_paths=2)
    maybe_trace(sim, "fig8_tcpls_%s" % outage)
    client, sessions, probe, done = build_tcpls_download(sim, topo, SIZE)
    if outage == "blackhole":
        topo.flap_path(0, at=outage_at)
    else:
        topo.rst_path(0, at=outage_at, direction="s2c")
    sim.run(until=60)
    assert done, "TCPLS transfer did not finish"
    return probe.series(), done[0]


def run_mptcp(outage, outage_at=None):
    outage_at = OUTAGE_AT if outage_at is None else outage_at
    sim = Simulator(seed=8)
    topo = build_faulty_multipath(sim, n_paths=2)
    client, probe, done = build_mptcp_upload(sim, topo, SIZE,
                                             path_manager="backup")
    if outage == "blackhole":
        topo.flap_path(0, at=outage_at)
    else:
        topo.rst_path(0, at=outage_at, direction="c2s")
    sim.run(until=60)
    assert done, "MPTCP transfer did not finish"
    return probe.series(), done[0]


def run_all():
    results = {}
    for outage in ("rst", "blackhole"):
        results[("tcpls", outage)] = run_tcpls(outage)
        results[("mptcp", outage)] = run_mptcp(outage)
    return results


def test_fig8_single_outage_recovery(benchmark):
    results = run_once(benchmark, run_all)
    print(banner("Fig. 8 -- recovery after a single outage at t=3s"))
    gaps = {}
    for (proto, outage), (series, finished) in results.items():
        gap = recovery_gap(series)
        gaps[(proto, outage)] = gap
        print("%-6s %-10s recovery=%.2fs finished=%.1fs" % (
            proto, outage, gap, finished))
        print("   " + fmt_series(series, every=2))

    # Paper: on RST both react fast.
    assert gaps[("tcpls", "rst")] < 0.6
    assert gaps[("mptcp", "rst")] < 1.5
    # Paper: a blackhole is harder; TCPLS (UTO 250 ms) recovers in ~1 s.
    assert 0.25 <= gaps[("tcpls", "blackhole")] <= 1.5
    # MPTCP relies on RTO backoff: slower than TCPLS on the blackhole.
    assert gaps[("mptcp", "blackhole")] > gaps[("tcpls", "blackhole")]
    # Both transfers complete despite the outage.
