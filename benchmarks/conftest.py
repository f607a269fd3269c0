"""Benchmark harness plumbing.

Every bench in this directory regenerates one of the paper's tables or
figures (see DESIGN.md's per-experiment index).  Each test wraps its
experiment in the pytest-benchmark fixture (rounds=1 -- the experiments
are deterministic discrete-event runs, not micro timings) so
``pytest benchmarks/ --benchmark-only`` executes the whole evaluation.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))


def pytest_addoption(parser):
    parser.addoption(
        "--qlog", metavar="DIR", default=None,
        help="write one qlog trace per instrumented experiment run into "
             "DIR (equivalent to REPRO_QLOG=DIR); inspect with QVIS",
    )
    parser.addoption(
        "--json", metavar="PATH", default=None, dest="bench_json",
        help="write the run's benchmark timings to PATH as JSON "
             "(consumed by benchmarks/gate.py for regression checks)",
    )


def pytest_configure(config):
    qlog_dir = config.getoption("--qlog", default=None)
    if qlog_dir:
        import common

        common.QLOG_DIR = qlog_dir


def _bench_stat(bench, key):
    """Pull one statistic off a pytest-benchmark entry, tolerating the
    small layout differences between plugin versions."""
    stats = getattr(bench, "stats", None)
    inner = getattr(stats, "stats", stats)
    value = getattr(inner, key, None)
    return float(value) if value is not None else None


def pytest_sessionfinish(session, exitstatus):
    import common

    for path in common.dump_traces():
        print("[qlog] wrote %s" % path)

    json_path = session.config.getoption("bench_json", default=None)
    if not json_path:
        return
    bench_session = getattr(session.config, "_benchmarksession", None)
    benchmarks = getattr(bench_session, "benchmarks", None) or []
    entries = []
    for bench in benchmarks:
        entry = {
            "name": getattr(bench, "name", "?"),
            "fullname": getattr(bench, "fullname", "?"),
            "mean": _bench_stat(bench, "mean"),
            "min": _bench_stat(bench, "min"),
            "stddev": _bench_stat(bench, "stddev"),
            "rounds": getattr(getattr(bench, "stats", None), "rounds",
                              None),
        }
        entries.append(entry)
    import json

    with open(json_path, "w") as handle:
        json.dump({"benchmarks": entries}, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("[bench] wrote %d benchmark timings to %s"
          % (len(entries), json_path))


def run_once(benchmark, fn):
    """Execute an experiment exactly once under the benchmark fixture."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
