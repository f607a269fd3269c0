#!/usr/bin/env python
"""C1M benchmark: one engine, thousands of concurrent TCPLS sessions.

Drives the :mod:`repro.perf.loadgen` churn script -- connect waves,
request/response transfers, MPJOINs, a scripted path outage with
failovers, close/reconnect churn -- against a
:class:`~repro.core.drivers.multi.MultiSessionServer` and reports
sessions/sec, p99 handshake and transfer latency, and bytes/s per
core.

Default shape is the acceptance run: 10k sessions concurrently alive
inside ONE process.  ``--shards N`` instead fans the population out
over N worker processes in a deterministic listener-per-shard layout
(shard ``i`` on ``base_port + i``, one core each), merged through :func:`repro.perf.matrix.run_matrix` so
the output is byte-identical for any ``--jobs`` value.

The JSON envelope (``--json``) contains only simulator-time metrics --
same seed, same bytes, every run.  Wall-clock timing goes to stderr
and never into the file.

``--fluid SCENARIO`` switches to the fluid fast-forward populations
(:class:`~repro.perf.loadgen.FluidScenarioHarness`): steady-state
flows advance in closed form, so ``--flows 100000`` completes in
seconds of wall clock where the packet path needs minutes.

Usage::

    PYTHONPATH=src python benchmarks/bench_c1m.py --json /tmp/c1m.json
    PYTHONPATH=src python benchmarks/bench_c1m.py --sessions 20000 --shards 4 --jobs 4
    PYTHONPATH=src python benchmarks/bench_c1m.py --fluid fairness --flows 100000
"""

import argparse
import json
import sys
import time

from repro.perf.loadgen import (
    FluidScenarioHarness,
    merge_shards,
    run_fluid_scenario,
    run_shard,
    shard_points,
)
from repro.perf.matrix import run_matrix


def run_fluid(args):
    """The 100k-flow fluid fast-forward benchmark path."""
    scenarios = (list(FluidScenarioHarness.SCENARIOS)
                 if args.fluid == "all" else [args.fluid])
    config = {
        "mode": "fluid",
        "scenarios": scenarios,
        "flows": args.flows,
        "seed": args.seed,
    }
    started = time.monotonic()
    results = []
    for scenario in scenarios:
        t0 = time.monotonic()
        metrics = run_fluid_scenario(
            scenario=scenario, flows=args.flows, seed=args.seed)
        scenario_wall = time.monotonic() - t0
        print("c1m-fluid: %s: %d/%d flows, %d leaps (%.1fs sim leapt), "
              "%d solves, wall %.1fs"
              % (scenario, metrics["flows_completed"], metrics["flows"],
                 metrics["fluid_leaps"], metrics["fluid_leapt_time"],
                 metrics["fluid_solves"], scenario_wall),
              file=sys.stderr)
        results.append(metrics)
    wall = time.monotonic() - started
    envelope = {
        "bench": "c1m-fluid",
        "config": config,
        "results": results,
        "summary": {
            "flows": sum(r["flows"] for r in results),
            "flows_completed": sum(r["flows_completed"] for r in results),
            "fluid_leaps": sum(r["fluid_leaps"] for r in results),
            "fluid_solves": sum(r["fluid_solves"] for r in results),
            "stalls": sum(r["stalls"] for r in results),
            "migrations": sum(r["migrations"] for r in results),
            "heap_compactions": sum(r["heap_compactions"] for r in results),
        },
    }
    text = json.dumps(envelope, sort_keys=True, indent=2) + "\n"
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print("c1m-fluid: %d scenario(s) x %d flows, wall %.1fs total"
          % (len(scenarios), args.flows, wall), file=sys.stderr)
    incomplete = envelope["summary"]["flows"] \
        - envelope["summary"]["flows_completed"]
    if incomplete:
        print("c1m-fluid: WARNING: %d flows never completed" % incomplete,
              file=sys.stderr)
        return 1
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sessions", type=int, default=10000,
                        help="total concurrent sessions (default 10000)")
    parser.add_argument("--shards", type=int, default=1,
                        help="worker-process shards (default 1: the "
                             "single-process acceptance run)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel workers for --shards > 1")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--budget", type=int, default=256 * 1024,
                        help="per-session receive-memory budget (bytes)")
    parser.add_argument("--fluid", metavar="SCENARIO",
                        choices=list(FluidScenarioHarness.SCENARIOS)
                        + ["all"],
                        help="run a fluid fast-forward population instead "
                             "of packet-level sessions: %s, or 'all'"
                             % "/".join(FluidScenarioHarness.SCENARIOS))
    parser.add_argument("--flows", type=int, default=100_000,
                        help="flow population for --fluid (default 100000)")
    parser.add_argument("--json", metavar="PATH",
                        help="write the deterministic envelope here")
    args = parser.parse_args(argv)

    if args.fluid:
        return run_fluid(args)

    config = {
        "sessions": args.sessions,
        "shards": args.shards,
        "seed": args.seed,
        "budget_bytes": args.budget,
    }
    started = time.monotonic()
    if args.shards == 1:
        shard_results = [run_shard(sessions=args.sessions, seed=args.seed,
                                   budget_bytes=args.budget)]
    else:
        points = shard_points(args.sessions, args.shards, seed=args.seed,
                              budget_bytes=args.budget)
        results, _ = run_matrix(points, jobs=args.jobs)
        shard_results = []
        for result in results:
            if "error" in result:
                print("c1m: shard %s failed: %s"
                      % (result["name"], result["error"]),
                      file=sys.stderr)
                return 1
            shard_results.append(result["metrics"])
    wall = time.monotonic() - started

    summary = merge_shards(shard_results)
    envelope = {
        "bench": "c1m",
        "config": config,
        "results": shard_results,
        "summary": summary,
    }
    text = json.dumps(envelope, sort_keys=True, indent=2) + "\n"
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    print("c1m: %d sessions / %d shard(s): peak %d concurrent, "
          "%d transfers, %d failovers, %.1f sessions/s (sim), "
          "%.0f bytes/s/core (sim), wall %.1fs"
          % (args.sessions, args.shards,
             summary["peak_concurrent_sessions"],
             summary["transfers_completed"], summary["failovers"],
             summary["sessions_per_sec"],
             summary["bytes_per_core_per_s"], wall),
          file=sys.stderr)
    if summary["table_end"] or summary["sessions_end"]:
        print("c1m: WARNING: %d table entries / %d sessions leaked"
              % (summary["table_end"], summary["sessions_end"]),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
