"""Experiment-matrix runner.

Usage (from the repo root)::

    python benchmarks/runner.py --jobs 4 --json benchmarks/BENCH_matrix.json
    python benchmarks/runner.py --list
    python benchmarks/runner.py --points fig8 --json out.json

Runs the declarative experiment matrix (:mod:`matrix_points`, 176
points) with the content-addressed result cache and per-shard journals:

- unchanged points (same spec, same source fingerprint) are served
  from ``.bench_cache/`` (``--cache-dir`` / ``$REPRO_BENCH_CACHE``)
  without spawning a worker -- an immediately repeated run is ~100%
  cache hits and finishes in under a second;
- ``--resume`` reuses successful entries from the journal directory
  and re-runs only missing/failed points;
- ``--rerun-failed`` re-executes exactly the points whose journalled
  result carried an ``"error"`` tag (implies ``--resume``).

The merged JSON is byte-identical for any ``--jobs`` value, shard
split, interrupt/resume history or cache state; CI asserts it with
``cmp``.  Cache statistics go to stderr and ``--stats-json`` only --
never into the merged report.
"""

import argparse
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
for path in (_HERE, _SRC):
    if path not in sys.path:
        sys.path.insert(0, path)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the merged report here")
    parser.add_argument("--points", default=None,
                        help="comma-separated point-name filter "
                             "(substring match unless --exact)")
    parser.add_argument("--exact", action="store_true",
                        help="match --points filters against whole "
                             "point names instead of substrings")
    parser.add_argument("--list", action="store_true",
                        help="list point names and exit")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result-cache root (default: "
                             "$REPRO_BENCH_CACHE or .bench_cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result cache (every point "
                             "executes)")
    parser.add_argument("--journal-dir", default=None, metavar="DIR",
                        help="shard-journal directory (default: "
                             "<cache-dir>/journal)")
    parser.add_argument("--resume", action="store_true",
                        help="reuse successful journal entries; re-run "
                             "only missing/failed points")
    parser.add_argument("--rerun-failed", action="store_true",
                        help="re-execute exactly the journalled points "
                             "whose result carried an error tag")
    parser.add_argument("--stats-json", default=None, metavar="PATH",
                        help="write cache/journal statistics here "
                             "(kept out of the merged report so it "
                             "stays byte-identical across runs)")
    parser.add_argument("--profile", default=None, metavar="PATH",
                        help="run the points serially in-process under "
                             "cProfile and dump the stats file here "
                             "(pool workers cannot be profiled from the "
                             "parent; implies --jobs 1 semantics)")
    args = parser.parse_args(argv)

    import matrix_points
    from repro.perf import (
        ResultCache,
        ShardJournal,
        filter_points,
        matrix_to_json,
        run_matrix,
    )
    from repro.perf.cache import resolve_cache_dir

    points = matrix_points.default_matrix()
    if args.points:
        wanted = [w.strip() for w in args.points.split(",") if w.strip()]
        points = filter_points(points, wanted, exact=args.exact)
    if args.list:
        for point in points:
            print(point.name)
        return 0
    if not points:
        print("no matrix points matched", file=sys.stderr)
        return 2

    started = time.perf_counter()
    stats = None
    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        results = []
        profiler.enable()
        for point in points:
            try:
                results.append({"name": point.name,
                                "metrics": point.run()})
            except Exception as exc:   # mirror the pool's error shape
                results.append({"name": point.name, "error": repr(exc)})
        profiler.disable()
        profiler.dump_stats(args.profile)
        stats_obj = pstats.Stats(profiler)
        print("profile: %d calls in %.3fs -> %s (top 10 by cumulative:)"
              % (stats_obj.total_calls, stats_obj.total_tt, args.profile),
              file=sys.stderr)
        stats_obj.sort_stats("cumulative").print_stats(10)
    else:
        cache = None
        if not args.no_cache:
            cache = ResultCache.open(
                args.cache_dir,
                roots=[os.path.join(_SRC, "repro"), _HERE])
        journal_dir = args.journal_dir or os.path.join(
            resolve_cache_dir(args.cache_dir), "journal")
        journal = ShardJournal(journal_dir)
        results, stats = run_matrix(
            points, jobs=args.jobs, cache=cache, journal=journal,
            resume=args.resume or args.rerun_failed,
            rerun_failed=args.rerun_failed)
    elapsed = time.perf_counter() - started

    failures = [r for r in results if "error" in r]
    text = matrix_to_json(results, args.json)
    if args.json:
        print("wrote %s (%d points, %d workers, %.1fs wall)"
              % (args.json, len(results), args.jobs, elapsed))
    else:
        sys.stdout.write(text)
    if stats is not None:
        print("cache: %s" % stats.summary(), file=sys.stderr)
        if args.stats_json:
            import json as _json

            doc = stats.to_dict()
            doc["points"] = len(results)
            doc["wall_s"] = round(elapsed, 3)
            with open(args.stats_json, "w") as handle:
                _json.dump(doc, handle, sort_keys=True, indent=2)
                handle.write("\n")
    for failure in failures:
        print("FAILED %s: %s" % (failure["name"], failure["error"]),
              file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
