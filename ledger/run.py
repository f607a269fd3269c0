#!/usr/bin/env python3
"""The repo's wall-clock benchmark.

Two ways in, one measurement underneath:

``python ledger/run.py --workload NAME --seed N --seconds S --trace 0|1``
    one run of one workload, as the benchmark driver calls it; the last
    line of output is the result as one JSON object.  ``--trace 0``
    gives the end-to-end metrics, ``--trace 1`` the per-layer ones.

``python ledger/run.py [--seed 42] [--runs 1] [--json OUT] [--trace-dir
DIR] [--quick] [--probes-only]``
    the whole ledger: every workload ``--runs`` times (seed, seed+1,
    ...), then one traced run of each, then the direct probes.

Every measurement runs in a fresh child process (``child.py``), one
process at a time; this file only spawns, watches and summarises, and
never imports the program.
"""

import argparse
import json
import os
import platform
import select
import subprocess
import sys
import time
from statistics import median

from env import LEDGER, OUT, ROOT, child_env, require_program
from stats import percentile

#: a child silent for this long is killed and its iteration booked as
#: failed: 20x the ~1 s the slowest iteration takes on a 2-core box
WATCHDOG_S = 20.0
#: a run sets up this many times and reports the fastest: like an
#: iteration, a set-up does the same work every time, and the machine
#: only ever adds to it
SETUPS = 5
#: share of ``--seconds`` a traced run spends on untraced iterations of
#: the traced input (the base of ``trace.overhead_ratio``)
TRACE_SHARE = 0.35


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- children -------------------------------------------------------------

def child_events(command, watchdog_s):
    """Spawn ``command`` and yield ``(event, seconds since spawn)`` for
    each JSON line it prints.  A child that stays silent for
    ``watchdog_s`` is killed (event ``hung``); one that ends without its
    ``done`` line is reported as ``crashed``."""
    started = time.perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.PIPE,
                               env=child_env())
    buffered = b""
    finished = False
    try:
        while True:
            ready, _, _ = select.select([process.stdout], [], [], watchdog_s)
            if not ready:
                yield {"event": "hung"}, time.perf_counter() - started
                return
            chunk = os.read(process.stdout.fileno(), 1 << 16)
            if not chunk:
                break
            buffered += chunk
            while b"\n" in buffered:
                line, buffered = buffered.split(b"\n", 1)
                event = json.loads(line)
                finished = finished or event["event"] == "done"
                yield event, time.perf_counter() - started
        if not finished:
            yield {"event": "crashed"}, time.perf_counter() - started
    finally:
        if process.poll() is None:
            process.kill()
        process.stdout.close()
        process.wait()


def child_command(workload, seed, seconds, cycles=None, trace=0,
                  size_factor=1.0):
    command = [sys.executable, os.path.join(LEDGER, "child.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(trace),
               "--size-factor", repr(size_factor)]
    if cycles is not None:
        command += ["--cycles", str(cycles)]
    return command


def collect(commands, watchdog_s=WATCHDOG_S):
    """Run the children one after another and gather what they report.

    The first command is the measuring child; the others only set up
    (their warm-up is one more check of input 0's ``sim_digest``, from
    another process).  An iteration that fails its check, raises, hangs
    or takes its child down is counted in ``failed`` and contributes no
    timing; the run goes on with the next iteration, or after a hang or
    crash with the next child, and keeps what was timed before.
    """
    record = {"setup_s": [], "iterations": [], "attempted": 0, "failed": 0,
              "errors": [], "trace": None, "peak_rss_mb": None,
              "sizes": None, "digest": None}
    for position, command in enumerate(commands):
        for event, elapsed in child_events(command, watchdog_s):
            kind = event["event"]
            if position == 0 and "peak_rss_mb" in event:
                record["peak_rss_mb"] = event["peak_rss_mb"]
            if kind == "done":
                continue
            record["attempted"] += 1
            if kind in ("hung", "crashed"):
                event = {"ok": False,
                         "error": "child %s after %.1f s" % (kind, elapsed)}
            elif kind == "setup":
                record["sizes"] = event.pop("sizes")
                if event["ok"]:
                    record["setup_s"].append(elapsed)
                    digest = event["digest"]
                    if record["digest"] is None:
                        record["digest"] = digest
                    elif digest != record["digest"]:
                        event = {"ok": False, "error":
                                 "sim_digest of input 0 differs between "
                                 "processes: %s, %s"
                                 % (record["digest"], digest)}
            if not event["ok"]:
                record["failed"] += 1
                record["errors"].append(event["error"])
            elif kind == "iter":
                record["iterations"].append(event)
            elif kind == "trace":
                record["trace"] = event
    return record


# -- one run of one workload ------------------------------------------------

def end_to_end(record):
    """The end-to-end metrics of one run, from its untraced timed
    iterations.

    A run cycles through four inputs, so each is timed several times;
    an input counts with its fastest iteration, and the medians are
    taken over the inputs.  The program is deterministic, so repeats of
    one input differ only by what else the machine was doing, which
    only ever adds time; what remains is how the cost varies with the
    input.  On the loopback workloads ``payload_MBps`` is over the
    transfer phases only, handshakes excluded.

    The child times whole cycles, so a run without a failure has timed
    every input.  After a failure the metrics are over the inputs that
    were timed: the input mix may differ, and the result says
    ``correct: false``.
    """
    fastest = {}
    for it in record["iterations"]:
        best = fastest.get(it["input"])
        if best is None or it["wall_s"] < best["wall_s"]:
            fastest[it["input"]] = it
    if not fastest or not record["setup_s"] \
            or record["peak_rss_mb"] is None:
        return None
    done = list(fastest.values())
    return {
        "setup_s": min(record["setup_s"]),
        "wall_s_p50": median(it["wall_s"] for it in done),
        "payload_MBps": median(
            it["payload_bytes"] / it.get("transfer_s", it["wall_s"]) / 1e6
            for it in done),
        "ops_per_s": median(it["ops"] / it["wall_s"] for it in done),
        "peak_rss_mb": record["peak_rss_mb"],
    }


def per_layer(record, probes):
    """The per-layer metrics of one traced run, or None without one."""
    trace, done = record["trace"], record["iterations"]
    if trace is None or not done:
        return None
    wall_p50 = percentile([it["wall_s"] for it in done], 50)
    handshakes = [s * 1e3 for it in done for s in it.get("handshake_s", ())]
    metrics = {"%s.self_s" % layer: seconds
               for layer, seconds in trace["layers"].items()}
    metrics.update(trace["counts"])
    metrics.update(trace["unit_costs"])
    metrics.update({
        "trace.overhead_ratio": trace["wall_s"] / wall_p50,
        # a count that repeats where the wall clock does not
        "trace.function_calls": trace["function_calls"],
        # host time per unit of simulated work, and the modelled
        # system's own result; both 0 where nothing is simulated
        "sim_packets_per_s":
            trace["counts"]["net.packets_forwarded"] / wall_p50,
        "sim_goodput_mbps":
            trace["payload_bytes"] * 8 / trace["sim_s"] / 1e6
            if trace["sim_s"] else 0.0,
        "handshake_ms_p50": percentile(handshakes, 50) if handshakes else 0.0,
        "handshake_ms_p80": percentile(handshakes, 80) if handshakes else 0.0,
    })
    metrics.update(probes)
    return metrics


def run_probes():
    output = subprocess.run(
        [sys.executable, os.path.join(LEDGER, "probes.py")],
        stdout=subprocess.PIPE, env=child_env(), check=True).stdout
    return json.loads(output)


def warm_bytecode():
    """Import the program once in a throwaway child, so that the first
    measured set-up does not pay for compiling it."""
    subprocess.run([sys.executable, "-c", "import child, probes"],
                   cwd=LEDGER, env=child_env(), check=True)


def measure(workload, seed, seconds, trace, quick=False):
    """One run: a measuring child and, untraced, four more set-ups."""
    size_factor, cycles = (0.25, 1) if quick else (1.0, None)
    if trace:
        commands = [child_command(workload, seed, seconds * TRACE_SHARE,
                                  cycles, 1, size_factor)]
    else:
        commands = [child_command(workload, seed, seconds, cycles, 0,
                                  size_factor)]
        commands += [child_command(workload, seed, 0.0, 0, 0, size_factor)
                     for _ in range(SETUPS - 1)]
    return collect(commands)


def write_trace(record, metrics, workload, trace_dir):
    os.makedirs(trace_dir, exist_ok=True)
    with open(os.path.join(trace_dir, workload + ".json"), "w") as handle:
        json.dump({"workload": workload, "sizes": record["sizes"],
                   "profiled_s": record["trace"]["profiled_s"],
                   "traced_wall_s": record["trace"]["wall_s"],
                   "metrics": metrics}, handle, indent=2, sort_keys=True)
    with open(os.path.join(trace_dir, workload + ".spans.jsonl"),
              "w") as handle:
        for span in record["trace"]["spans"]:
            handle.write(json.dumps(span) + "\n")


def describe(workload, seed, record, metrics, units):
    """Every metric by name with its unit, for a reader."""
    print("workload %s  seed %d  closed loop: one client, one in flight"
          % (workload, seed))
    if workload.startswith("loopback"):
        print("  traffic crossed the host's loopback interface, not a link")
    print("  inputs %s" % json.dumps(record["sizes"], sort_keys=True))
    print("  iterations: %d timed over %d inputs, %d attempted, %d failed; "
          "sim_digest[input 0] %s"
          % (len(record["iterations"]),
             len({it["input"] for it in record["iterations"]}),
             record["attempted"], record["failed"], record["digest"]))
    for error in record["errors"]:
        print("  FAILED: %s" % error)
    for name, value in (metrics or {}).items():
        print("  %-44s %14.6g %s" % (name, value, units[name]))


# -- the driver's entry: one workload, one result line ------------------------

def run_one(args, spec, units):
    warm_bytecode()
    record = measure(args.workload, args.seed, args.seconds, args.trace,
                     args.quick)
    if args.trace:
        probes = run_probes() if record["trace"] else {}
        metrics = per_layer(record, probes)
        declared = [m["name"] for m in spec["per_layer"]]
        if metrics is not None:
            write_trace(record, metrics, args.workload, args.trace_dir)
    else:
        metrics = end_to_end(record)
        declared = [m["name"] for m in spec["end_to_end"]]
    describe(args.workload, args.seed, record, metrics, units)
    if metrics is None or set(metrics) != set(declared):
        sys.stderr.write("ledger: metrics missing for %s: have %s\n"
                         % (args.workload, sorted(metrics or ())))
        return 1
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in declared},
    }))
    return 0 if record["failed"] == 0 else 1


# -- the whole ledger ------------------------------------------------------------

def environment(args, spec):
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, check=True).stdout.decode().strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "load_1m_start": os.getloadavg()[0], "commit": commit,
            "seed": args.seed, "runs": args.runs, "quick": args.quick,
            "run_seconds": spec["run_seconds"]}


def run_all(args, spec, units):
    names = [w["name"] for w in spec["workloads"]]
    report = {"env": environment(args, spec), "workloads": {}, "probes": {}}
    status = 0
    warm_bytecode()
    if args.probes_only:
        names = []
    for name in names:
        report["workloads"][name] = {
            "end_to_end": {m["name"]: [] for m in spec["end_to_end"]},
            "attempted": 0, "failed": 0, "digests": {}, "sizes": None,
            "per_layer": None}
    # runs outermost: a slow spell of the machine then touches one run
    # of every workload, not every run of one
    for seed in range(args.seed, args.seed + args.runs):
        for name in names:
            entry = report["workloads"][name]
            record = measure(name, seed, spec["run_seconds"], 0, args.quick)
            metrics = end_to_end(record)
            describe(name, seed, record, metrics, units)
            entry["attempted"] += record["attempted"]
            entry["failed"] += record["failed"]
            entry["digests"][str(seed)] = record["digest"]
            entry["sizes"] = record["sizes"]
            if record["failed"]:
                continue    # some input untimed or mistimed: no values
            for metric, value in (metrics or {}).items():
                entry["end_to_end"][metric].append(value)
    for name in names:
        entry = report["workloads"][name]
        record = measure(name, args.seed, spec["run_seconds"], 1, args.quick)
        entry["attempted"] += record["attempted"]
        entry["failed"] += record["failed"]
        metrics = per_layer(record, {})
        describe(name + " (traced)", args.seed, record, metrics, units)
        if metrics is not None:
            entry["per_layer"] = metrics
            write_trace(record, metrics, name, args.trace_dir)
        if entry["failed"] or metrics is None or any(
                len(values) != args.runs
                for values in entry["end_to_end"].values()):
            status = 1
    report["probes"] = run_probes()
    print("direct probes")
    for name, value in report["probes"].items():
        print("  %-44s %14.6g %s" % (name, value, units[name]))
    report["env"]["load_1m_end"] = os.getloadavg()[0]
    if args.json:
        os.makedirs(os.path.dirname(os.path.abspath(args.json)),
                    exist_ok=True)
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
    print("ledger: %s" % ("ok" if status == 0 else
                          "FAILED (a check failed or a metric is missing)"))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--json")
    parser.add_argument("--trace-dir", default=os.path.join(OUT, "trace"))
    parser.add_argument("--quick", action="store_true",
                        help="one cycle of quarter-size inputs")
    parser.add_argument("--probes-only", action="store_true")
    args = parser.parse_args(argv)

    require_program()
    spec = load_spec()
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    if args.workload is None:
        return run_all(args, spec, units)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error("unknown workload %r" % args.workload)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    return run_one(args, spec, units)


if __name__ == "__main__":
    sys.exit(main())
