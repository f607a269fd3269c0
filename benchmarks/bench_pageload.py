#!/usr/bin/env python
"""Page-load benchmark: scheduling policies x stacks x loss grids.

Replays deterministic synthetic web pages (dependency graphs of sized
objects, see :mod:`repro.workload`) over TCPLS multipath, QUIC and
MPTCP, under each scheduling policy, across Gilbert-Elliott loss
grids, and reports the page-load-time (PLT) distribution of every
cell.  This is the experiment the policy layer exists for: the same
:class:`~repro.core.engine.policy.Policy` object that schedules
records inside a coupled group decides which pooled connection carries
each page object, so the matrix directly compares policy quality at
page granularity.

All metrics derive from simulator time and deterministic counters: a
fixed configuration produces a byte-identical JSON envelope on every
run and for any ``--jobs`` value (cells run via
:func:`repro.perf.sweep.run_sweep`, one fresh interpreter each).

Usage::

    PYTHONPATH=src python benchmarks/bench_pageload.py --json /tmp/pageload.json
    PYTHONPATH=src python benchmarks/bench_pageload.py --jobs 4 --pages 8
    PYTHONPATH=src python benchmarks/bench_pageload.py --stacks tcpls,quic --grids clean,ge-light
"""

import argparse
import json
import sys
import time

import pytest

from repro.perf.pageload import (
    PAGELOAD_GRIDS,
    PAGELOAD_POLICIES,
    PAGELOAD_STACKS,
    run_pageload_cell,
)
from repro.perf.sweep import SweepPoint, run_sweep

DEFAULT_STACKS = ("tcpls", "quic", "mptcp")
DEFAULT_POLICIES = ("round-robin", "lowest-rtt", "predictive")
DEFAULT_GRIDS = ("clean", "ge-light", "ge-burst")


def _csv(value, allowed, label):
    names = [v.strip() for v in value.split(",") if v.strip()]
    for name in names:
        if name not in allowed:
            raise SystemExit("unknown %s %r (choose from %s)"
                             % (label, name, ", ".join(allowed)))
    return names


def build_points(args):
    """The cell matrix in canonical (merge) order."""
    points = []
    for grid in args.grids:
        for stack in args.stacks:
            for policy in args.policies:
                points.append(SweepPoint(
                    "pageload/%s/%s/%s" % (grid, stack, policy),
                    run_pageload_cell,
                    {
                        "stack": stack, "policy": policy, "grid": grid,
                        "pages": args.pages, "waves": args.waves,
                        "n_objects": args.objects, "seed": args.seed,
                        "horizon": args.horizon,
                    }))
    return points


# -- pytest-benchmark smoke cells ------------------------------------------
#
# One scaled-down cell per (stack, policy) pair on the ge-light grid.
# The timing lands in the usual compare.py regression table; the cell's
# simulated PLT percentiles ride along in extra_info, so the table also
# reports p50/p95 page-load time per point (deterministic sim-time
# metrics, unlike the wall-clock timing).

SMOKE_CELLS = [
    ("tcpls", "round-robin"), ("tcpls", "lowest-rtt"),
    ("tcpls", "predictive"), ("quic", "round-robin"),
    ("quic", "predictive"), ("mptcp", "round-robin"),
]


@pytest.mark.workload
@pytest.mark.smoke
@pytest.mark.parametrize("stack,policy", SMOKE_CELLS,
                         ids=["%s-%s" % cell for cell in SMOKE_CELLS])
def test_pageload_smoke(benchmark, stack, policy):
    from conftest import run_once

    metrics = run_once(benchmark, lambda: run_pageload_cell(
        stack=stack, policy=policy, grid="ge-light",
        pages=3, waves=2, n_objects=12, horizon=60.0))
    assert metrics["pages_completed"] == metrics["pages"], \
        "pages stalled: %r" % (metrics,)
    benchmark.extra_info["plt_p50"] = metrics["plt_p50"]
    benchmark.extra_info["plt_p95"] = metrics["plt_p95"]
    benchmark.extra_info["pool"] = metrics["pool"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--stacks", default=",".join(DEFAULT_STACKS),
                        help="comma-separated stacks (default %(default)s)")
    parser.add_argument("--policies", default=",".join(DEFAULT_POLICIES),
                        help="comma-separated policies (default %(default)s)")
    parser.add_argument("--grids", default=",".join(DEFAULT_GRIDS),
                        help="comma-separated loss grids "
                             "(default %(default)s)")
    parser.add_argument("--pages", type=int, default=6,
                        help="pages per cell (default 6)")
    parser.add_argument("--waves", type=int, default=3,
                        help="connect waves per cell (default 3)")
    parser.add_argument("--objects", type=int, default=30,
                        help="objects per page (default 30)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--horizon", type=float, default=120.0,
                        help="per-cell simulation horizon in seconds")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel worker processes")
    parser.add_argument("--json", metavar="PATH",
                        help="write the deterministic envelope here")
    args = parser.parse_args(argv)
    args.stacks = _csv(args.stacks, PAGELOAD_STACKS, "stack")
    args.policies = _csv(args.policies, PAGELOAD_POLICIES, "policy")
    args.grids = _csv(args.grids, PAGELOAD_GRIDS, "grid")

    points = build_points(args)
    started = time.monotonic()
    cells = []
    for result in run_sweep(points, jobs=args.jobs):
        if "error" in result:
            print("pageload: %s failed: %s"
                  % (result["name"], result["error"]), file=sys.stderr)
            return 1
        cells.append(result["metrics"])
    wall = time.monotonic() - started

    incomplete = sum(c["pages"] - c["pages_completed"] for c in cells)
    summary = {
        "cells": len(cells),
        "pages": sum(c["pages"] for c in cells),
        "pages_completed": sum(c["pages_completed"] for c in cells),
        "plt_p50": {
            "%s/%s/%s" % (c["grid"], c["stack"], c["policy"]): c["plt_p50"]
            for c in cells
        },
        "plt_p95": {
            "%s/%s/%s" % (c["grid"], c["stack"], c["policy"]): c["plt_p95"]
            for c in cells
        },
    }
    envelope = {
        "bench": "pageload",
        "config": {
            "stacks": args.stacks, "policies": args.policies,
            "grids": args.grids, "pages": args.pages,
            "waves": args.waves, "objects": args.objects,
            "seed": args.seed,
        },
        "results": cells,
        "summary": summary,
    }
    text = json.dumps(envelope, sort_keys=True, indent=2) + "\n"
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    # Human-readable grid on stderr: one row per cell.
    header = "%-10s %-7s %-12s %8s %8s %6s" % (
        "grid", "stack", "policy", "p50(s)", "p95(s)", "pages")
    print(header, file=sys.stderr)
    print("-" * len(header), file=sys.stderr)
    for c in cells:
        print("%-10s %-7s %-12s %8s %8s %3d/%-3d" % (
            c["grid"], c["stack"], c["policy"],
            "%.3f" % c["plt_p50"] if c["plt_p50"] is not None else "-",
            "%.3f" % c["plt_p95"] if c["plt_p95"] is not None else "-",
            c["pages_completed"], c["pages"]), file=sys.stderr)
    print("pageload: %d cells, %d/%d pages, wall %.1fs"
          % (len(cells), summary["pages_completed"], summary["pages"],
             wall), file=sys.stderr)
    if incomplete:
        print("pageload: WARNING: %d pages never completed" % incomplete,
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
