#!/usr/bin/env python3
"""Direction-aware A/B table of two ledger reports.

``python ledger/compare.py A.json B.json`` where each file was written
by ``python ledger/run.py --runs N --json FILE`` with N >= 2 (a single
run has no spread to judge a difference by).  One row per
(workload, end-to-end metric): both medians with their quartiles over
the N runs, the relative change of B against A, and the bound from
``BENCHMARK.json``.  A row is

- ``WORSE``       when B's median is worse than A's by more than the bound,
- ``unresolved``  when either side's own quartile spread exceeds the
                  bound, so the runs cannot tell "same" from "moved",
- ``better``      when B's median is better by more than the bound,
- ``same``        otherwise.

Exits 1 when any row is WORSE or has fewer than two values on a side,
or a workload's fail ratio rose.  Passing
the same commit twice is the A/A check.
"""

import json
import sys

from run import load_spec
from stats import quartiles, spread


def fail_ratio(entry):
    return entry["failed"] / entry["attempted"] if entry["attempted"] else 1.0


def compare(report_a, report_b, spec, out=sys.stdout):
    """Print the table; returns the number of regressions."""
    regressions = 0
    out.write("%-19s %-13s %31s %31s %8s %6s  %s\n" % (
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
        "change", "bound", "verdict"))
    for workload in (w["name"] for w in spec["workloads"]):
        a = report_a["workloads"][workload]
        b = report_b["workloads"][workload]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values_a, values_b = a["end_to_end"][name], b["end_to_end"][name]
            if len(values_a) < 2 or len(values_b) < 2:
                out.write("%-19s %-13s %d and %d values: rerun with "
                          "--runs N, N >= 2\n"
                          % (workload, name, len(values_a), len(values_b)))
                regressions += 1
                continue
            qa, qb = quartiles(values_a), quartiles(values_b)
            change = (qb[1] - qa[1]) / qa[1]
            worse_by = change if metric["better"] == "lower" else -change
            if worse_by > bound:
                verdict = "WORSE"
                regressions += 1
            elif max(spread(values_a), spread(values_b)) > bound:
                verdict = "unresolved"
            elif worse_by < -bound:
                verdict = "better"
            else:
                verdict = "same"
            out.write("%-19s %-13s %31s %31s %+7.1f%% %5.1f%%  %s\n" % (
                workload, name,
                "%.4g [%.4g, %.4g]" % (qa[1], qa[0], qa[2]),
                "%.4g [%.4g, %.4g]" % (qb[1], qb[0], qb[2]),
                change * 100, bound * 100, verdict))
        ratio_a, ratio_b = fail_ratio(a), fail_ratio(b)
        rose = ratio_b > ratio_a
        regressions += rose
        same_digests = a["digests"] == b["digests"]
        goodput_a = (a["per_layer"] or {}).get("sim_goodput_mbps")
        goodput_b = (b["per_layer"] or {}).get("sim_goodput_mbps")
        out.write("%-19s fail_ratio %.4g -> %.4g%s; sim_digest %s; "
                  "sim_goodput_mbps %s\n" % (
                      workload, ratio_a, ratio_b, "  ROSE" if rose else "",
                      "identical" if same_digests else "DIFFERS",
                      "identical" if goodput_a == goodput_b
                      else "%r -> %r" % (goodput_a, goodput_b)))
    return regressions


def main(argv=None):
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        sys.stderr.write(__doc__)
        return 2
    reports = []
    for path in paths:
        with open(path) as handle:
            reports.append(json.load(handle))
    regressions = compare(reports[0], reports[1], load_spec())
    print("compare: %s" % ("ok" if not regressions
                           else "%d regression(s)" % regressions))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
