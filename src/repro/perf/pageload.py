"""Deterministic page-load experiment cells (the ``pageload/*`` matrix
family's core).

One *cell* is a full browsing burst: ``pages`` synthetic pages, ramped
in waves (the same :func:`~repro.perf.loadgen.build_wave_schedule`
that drives the C1M harness), loaded over one transport stack under
one scheduling policy on one loss grid.  The result dict carries the
page-load-time distribution (every sample plus p50/p95), per-object
counts and the pool's reuse accounting -- all derived from simulator
time and deterministic counters, so a fixed configuration is
byte-identical on every run.

Every runner here is a plain top-level function, so
:func:`repro.perf.matrix.run_matrix` can pickle it by reference into
spawn workers.
"""

from repro.net import Simulator, build_faulty_multipath
from repro.perf.loadgen import build_wave_schedule

__all__ = [
    "make_policy",
    "run_pageload_cell",
]


def make_policy(name, rate_cap_bps=None):
    """Instantiate a scheduling policy by its bus name."""
    from repro.core.engine.policy import (
        LowestRttScheduler,
        PredictivePolicy,
        RedundantScheduler,
        RoundRobinScheduler,
        WeightedScheduler,
    )

    if name == "round-robin":
        return RoundRobinScheduler()
    if name == "lowest-rtt":
        return LowestRttScheduler()
    if name == "predictive":
        return PredictivePolicy(rate_cap_bps=rate_cap_bps)
    if name == "weighted":
        return WeightedScheduler([3, 1])
    if name == "redundant":
        return RedundantScheduler()
    raise ValueError("unknown policy %r" % (name,))


def _apply_grid(topo, grid, seed):
    """Install one named Gilbert-Elliott loss recipe on the topology.

    ``ge-light``: occasional short loss bursts on path 0 only -- the
    recoverable case where steering objects onto path 1 pays off.
    ``ge-burst``: heavy bursts on path 0 plus light bursts on path 1 --
    nowhere is clean, policies must keep adapting.
    """
    if grid == "clean":
        return
    if grid == "ge-light":
        topo.burst_loss(0, p_gb=0.005, p_bg=0.30, loss_bad=1.0,
                        seed=seed + 1)
        return
    if grid == "ge-burst":
        topo.burst_loss(0, p_gb=0.01, p_bg=0.20, loss_bad=0.6,
                        seed=seed + 1)
        if len(topo.paths) > 1:
            topo.burst_loss(1, p_gb=0.003, p_bg=0.30, loss_bad=0.5,
                            seed=seed + 2)
        return
    raise ValueError("unknown grid %r" % (grid,))


def _make_fetcher(stack, sim, topo, n_paths):
    from repro.workload.fetchers import (
        MptcpPageFetcher,
        QuicPageFetcher,
        TcplsPageFetcher,
    )

    if stack == "tcpls":
        return TcplsPageFetcher(sim, topo, n_paths=n_paths)
    if stack == "quic":
        return QuicPageFetcher(sim, topo)
    if stack == "mptcp":
        return MptcpPageFetcher(sim, topo, n_paths=n_paths)
    raise ValueError("unknown stack %r" % (stack,))


def _percentile(ordered, fraction):
    if not ordered:
        return None
    index = int(fraction * (len(ordered) - 1))
    return round(ordered[index], 9)


def run_pageload_cell(stack="tcpls", policy="round-robin", grid="clean",
                      pages=6, waves=3, wave_interval=0.25,
                      n_objects=30, seed=42, n_paths=2,
                      rate_bps=25_000_000, delay=0.010, horizon=120.0):
    """Run one (stack, policy, grid) cell; returns the metrics dict.

    Pages ramp in ``waves`` waves (so later pages contend with earlier
    ones for the pool -- reuse accounting only means something under
    overlap); page ``i`` uses the synthetic spec seeded ``seed + i``,
    identical across every stack and policy of the same sweep.  The
    run ends when the last page reports its load; ``horizon`` only
    bounds a cell whose pages never finish.
    """
    from repro.workload.pages import synthetic_page
    from repro.workload.transfers import TransferManager

    sim = Simulator(seed=seed)
    topo = build_faulty_multipath(sim, n_paths=n_paths, rate_bps=rate_bps,
                                  delay=delay)
    _apply_grid(topo, grid, seed)
    fetcher = _make_fetcher(stack, sim, topo, n_paths)
    pool = fetcher.pool(bus=sim.bus)
    chooser = make_policy(policy, rate_cap_bps=rate_bps)
    schedule = build_wave_schedule(pages, waves, wave_interval)
    managers = []

    def page_done():
        if all(manager.done for manager in managers):
            sim.stop()

    def start_pages():
        for offset, index in schedule:
            page = synthetic_page(seed=seed + index, n_objects=n_objects)
            manager = TransferManager(page, pool, chooser, sim,
                                      fetcher.fetch, bus=sim.bus,
                                      on_page_done=page_done)
            managers.append(manager)
            sim.schedule(offset, manager.start)

    fetcher.connect(start_pages)
    sim.run(until=horizon)

    plts = sorted(m.plt for m in managers if m.plt is not None)
    objects_done = sum(len(m._completed) for m in managers)
    objects_total = sum(len(m.transfers) for m in managers)
    return {
        "stack": stack,
        "policy": policy,
        "grid": grid,
        "pages": pages,
        "pages_completed": len(plts),
        "objects": objects_total,
        "objects_completed": objects_done,
        "bytes": sum(m.page.total_bytes for m in managers),
        "plt_samples": [round(v, 9) for v in plts],
        "plt_p50": _percentile(plts, 0.50),
        "plt_p95": _percentile(plts, 0.95),
        "plt_max": round(plts[-1], 9) if plts else None,
        "pool": pool.stats(),
    }
