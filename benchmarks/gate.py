"""The regression gate: diff a fresh report against its committed baseline.

Usage::

    python benchmarks/gate.py BASELINE.json NEW.json [--threshold 0.2]

Reads both report shapes, told apart by their top-level key:

- ``benchmarks`` -- pytest-benchmark timings (``pytest benchmarks/
  --benchmark-only --json PATH``, see conftest.py).  Each entry is
  gated on its ``min`` wall seconds (the statistic least sensitive to
  noise on a shared machine), lower is better.
- ``results`` -- merged matrix reports from ``runner.py``.  Every
  point's *directional* sim-time metrics are gated: one listed in
  ``LOWER_IS_BETTER`` (completion times, latency percentiles) regresses
  when it grows past the threshold, one in ``HIGHER_IS_BETTER``
  (throughput, delivered volume) when it shrinks past it.  One level of
  nesting is flattened to dotted names (``handshake_latency.p99``).
  Digests, counters and other non-directional values are ignored -- the
  golden traces already pin those bit-for-bit.

Failures are grouped by axis value: matrix points carry their axis
assignment (``{"axes": {"cipher": "chacha20poly1305", ...}}``), so the
report says "all cipher=chacha20poly1305 points slowed" instead of
printing hundreds of indistinguishable rows.  Exit status 1 on any
regression or on a point that errors where the baseline succeeded, 0
otherwise; names present on only one side are reported but never fail
the run (new points need a first baseline, retired ones a refresh, and
a filtered run is gated on the points it ran).
"""

import argparse
import json
import sys
from collections import defaultdict

#: metric -> smaller is better (simulated completion/latency seconds)
LOWER_IS_BETTER = frozenset((
    "done_at", "plt_p50", "plt_p95", "plt_max", "last_completion",
    "handshake_latency.p99", "transfer_latency.p99",
))
#: metric -> larger is better (rates and delivered volume)
HIGHER_IS_BETTER = frozenset((
    "gbps", "bytes_delivered", "bytes", "sessions_per_sec",
    "bytes_per_sec", "pages_completed", "objects_completed",
    "transfers_completed", "flows_completed",
    "probe.bottleneck_utilization", "probe.jain_rate_x_rtt",
))


def directional_metrics(metrics):
    """{dotted name: (value, lower_is_better)} of a matrix point's
    metrics dict, one level of nesting flattened."""
    directional = LOWER_IS_BETTER | HIGHER_IS_BETTER
    flat = {}
    for key, value in metrics.items():
        if isinstance(value, dict):
            flat.update(("%s.%s" % (key, sub), inner)
                        for sub, inner in value.items())
        else:
            flat[key] = value
    return {key: (float(value), key in LOWER_IS_BETTER)
            for key, value in flat.items()
            if key in directional and isinstance(value, (int, float))
            and not isinstance(value, bool)}


def load(path):
    """name -> entry, each with its ``gated`` metrics attached."""
    with open(path) as handle:
        doc = json.load(handle)
    if "benchmarks" in doc:
        return {bench["name"]: {"gated": {"min": (bench["min"], True)}}
                for bench in doc["benchmarks"] if bench.get("min")}
    out = {}
    for entry in doc.get("results", []):
        if entry.get("name"):
            entry["gated"] = directional_metrics(entry.get("metrics") or {})
            out[entry["name"]] = entry
    return out


def compare_point(old_gated, new_gated, threshold):
    """Regressions for one point: [(metric, old, new, severity)]."""
    found = []
    for key, (old_value, lower_better) in old_gated.items():
        if key not in new_gated or old_value == 0.0:
            continue
        new_value = new_gated[key][0]
        ratio = new_value / old_value
        severity = (ratio - 1.0) if lower_better else (1.0 - ratio)
        if severity > threshold:
            found.append((key, old_value, new_value, severity))
    return found


def print_one_sided(names, note):
    for name in names[:10]:
        print("%-64s (%s)" % (name, note))
    if len(names) > 10:
        print("... and %d more (%s)" % (len(names) - 10, note))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="fail if NEW regressed against BASELINE")
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("new", help="freshly produced report JSON")
    parser.add_argument("--threshold", type=float, default=0.2,
                        help="allowed relative drift (default 0.2)")
    args = parser.parse_args(argv)

    baseline = load(args.baseline)
    new = load(args.new)
    shared = sorted(set(baseline) & set(new))

    regressed = {}          # name -> [(metric, old, new, severity)]
    new_errors = []
    compared = 0
    for name in shared:
        old_entry, new_entry = baseline[name], new[name]
        if "error" in new_entry:
            if "error" not in old_entry:
                new_errors.append((name, new_entry["error"]))
            continue
        if "error" in old_entry:
            continue
        compared += 1
        found = compare_point(old_entry["gated"], new_entry["gated"],
                              args.threshold)
        if found:
            regressed[name] = found

    only_old = sorted(set(baseline) - set(new))
    only_new = sorted(set(new) - set(baseline))
    print("%d points compared against the baseline "
          "(%d regressed, %d new errors, %d new, %d removed)"
          % (compared, len(regressed), len(new_errors), len(only_new),
             len(only_old)))

    if regressed:
        groups = defaultdict(lambda: [0, 0])    # (axis, value) -> [bad, total]
        for name in shared:
            axes = dict(new[name].get("axes") or {})
            axes["family"] = name.split("/", 1)[0]
            for axis, value in axes.items():
                cell = groups[(axis, str(value))]
                cell[1] += 1
                cell[0] += name in regressed
        # A group of one says nothing its point's own line does not.
        ranked = sorted(
            ((bad / total, bad, total, axis, value)
             for (axis, value), (bad, total) in groups.items()
             if bad and total > 1),
            reverse=True)
        if ranked:
            print("\nregressions grouped by axis value (worst first):")
        for fraction, bad, total, axis, value in ranked:
            note = "  <-- ALL points of this value" if bad == total else ""
            print("  %-28s %3d/%-3d regressed (%.0f%%)%s"
                  % ("%s=%s" % (axis, value), bad, total,
                     fraction * 100, note))
        worst = sorted(regressed.items(),
                       key=lambda item: -max(f[3] for f in item[1]))
        print("\nworst individual points:")
        for name, found in worst[:10]:
            metric, old_value, new_value, severity = max(
                found, key=lambda f: f[3])
            print("  %-64s %s %.6g -> %.6g (%+.1f%%)  REGRESSED"
                  % (name, metric, old_value, new_value, severity * 100))
        if len(worst) > 10:
            print("  ... and %d more" % (len(worst) - 10))
    for name, error in new_errors:
        print("NEW ERROR %s: %s" % (name, error))
    print_one_sided(only_new, "new: no baseline yet")
    print_one_sided(only_old, "removed: present only in baseline")

    if regressed or new_errors:
        print("\nFAIL: drifted past %.0f%% of %s.  If the change is "
              "intended, refresh the baseline (see bench-check and "
              "bench-matrix in the Makefile)."
              % (args.threshold * 100, args.baseline))
        return 1
    print("within the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
