"""Fig. 9: repeated outages on a 4-path network, 60 MB download.

Three of the four paths are blackholed at any time; the working path
rotates every 5 seconds so each stack must *find* it before recovering.
The paper's result: MPTCP handles the first failure well but needs
several seconds for the following ones; TCPLS finds the right path
quickly every time and finishes the transfer sooner.

The rotation is scripted with ``MultipathTopology.rotate_working`` — the
deterministic fault layer — so identical seeds replay the identical
outage pattern (asserted by ``tests/net/test_bench_scenarios.py``).
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

SIZE = scaled(60 << 20)
ROTATE_EVERY = 5.0
N_PATHS = 4
HORIZON = 120.0


def run_tcpls(rotate_every=None):
    rotate_every = ROTATE_EVERY if rotate_every is None else rotate_every
    sim = Simulator(seed=9)
    topo = build_faulty_multipath(sim, n_paths=N_PATHS,
                                  families=[4, 6, 4, 6])
    maybe_trace(sim, "fig9_tcpls")
    client, sessions, probe, done = build_tcpls_download(
        sim, topo, SIZE, uto=None,
        client_kwargs={"join_timeout": 0.5},
    )
    client.auto_user_timeout = 0.25
    topo.rotate_working(rotate_every)
    sim.run(until=HORIZON)
    return probe.series(), (done[0] if done else None), probe.total


def run_mptcp(rotate_every=None):
    rotate_every = ROTATE_EVERY if rotate_every is None else rotate_every
    sim = Simulator(seed=9)
    topo = build_faulty_multipath(sim, n_paths=N_PATHS,
                                  families=[4, 6, 4, 6])
    client, probe, done = build_mptcp_upload(sim, topo, SIZE,
                                             path_manager="fullmesh",
                                             n_paths=N_PATHS)
    topo.rotate_working(rotate_every)
    sim.run(until=HORIZON)
    return probe.series(), (done[0] if done else None), probe.total


def run_all():
    return {"tcpls": run_tcpls(), "mptcp": run_mptcp()}


def stalled_time(series, threshold=1.0):
    return sum(0.25 for _t, v in series if v < threshold)


def test_fig9_rotating_outages(benchmark):
    results = run_once(benchmark, run_all)
    print(banner("Fig. 9 -- rotating outages (working path moves every "
                 "%.0fs), %d MB download" % (ROTATE_EVERY, SIZE >> 20)))
    summary = {}
    for proto, (series, finished, total) in results.items():
        stall = stalled_time(series)
        summary[proto] = (finished, stall, total)
        print("%-6s finished=%s stalled=%.1fs delivered=%dMB" % (
            proto, ("%.1fs" % finished) if finished else "DNF",
            stall, total >> 20))
        print("   " + fmt_series(series, every=8))

    tcpls_done, tcpls_stall, tcpls_total = summary["tcpls"]
    mptcp_done, mptcp_stall, mptcp_total = summary["mptcp"]
    # TCPLS completes the transfer.
    assert tcpls_done is not None
    # TCPLS completes faster than MPTCP (or MPTCP does not finish).
    if mptcp_done is not None:
        assert tcpls_done < mptcp_done
    else:
        assert tcpls_total > mptcp_total
    # TCPLS spends clearly less time stalled across the rotations.
    assert tcpls_stall < mptcp_stall
