"""Benchmark harness plumbing.

The paper's tables and figures, Sec. 5.1's text results and the design
ablations are matrix rows (``matrix_points.py``) checked by
``claims.py``; the pytest benches here are the experiment not yet in
the matrix (Fig. 12) and the micro hot-path suite.  Each experiment
test wraps its run in the
pytest-benchmark fixture (rounds=1 -- the experiments are
deterministic discrete-event runs, not micro timings).
"""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))


def pytest_addoption(parser):
    parser.addoption(
        "--json", metavar="PATH", default=None, dest="bench_json",
        help="write the run's benchmark timings to PATH as JSON "
             "(consumed by benchmarks/gate.py for regression checks)",
    )


def _bench_stat(bench, key):
    """Pull one statistic off a pytest-benchmark entry, tolerating the
    small layout differences between plugin versions."""
    stats = getattr(bench, "stats", None)
    inner = getattr(stats, "stats", stats)
    value = getattr(inner, key, None)
    return float(value) if value is not None else None


def pytest_sessionfinish(session, exitstatus):
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
