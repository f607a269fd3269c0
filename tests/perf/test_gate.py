"""The regression gate (``benchmarks/gate.py``), on both report shapes.

``benchmarks``-shaped timings: a bench present on one side only is
reported and never fails the gate (it gets its first baseline on the
next refresh); a ``min`` past the threshold exits nonzero.

``results``-shaped matrices: the gate must pass on an identical matrix,
fail on a seeded >20% regression in either direction, group the failure
report by axis value (naming the axis value when *all* of its points
slowed), reach metrics one level down, and fail when a previously green
point now errors.
"""

import json
import os
import sys

BENCH_DIR = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                         "benchmarks")
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import gate    # noqa: E402


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc, sort_keys=True))
    return str(path)


# -- pytest-benchmark timings ------------------------------------------------

def timings(benches):
    return {"benchmarks": [{"name": n, "min": v, "mean": v}
                           for n, v in benches.items()]}


def test_new_bench_without_baseline_passes(tmp_path, capsys):
    baseline = write(tmp_path, "base.json", timings({"old": 1.0}))
    new = write(tmp_path, "new.json",
                timings({"old": 1.0, "brand_new": 5.0}))
    assert gate.main([baseline, new]) == 0
    out = capsys.readouterr().out
    assert "brand_new" in out
    assert "(new: no baseline yet)" in out
    assert "1 new" in out


def test_only_new_benches_passes(tmp_path):
    baseline = write(tmp_path, "base.json", timings({}))
    new = write(tmp_path, "new.json", timings({"a": 1.0, "b": 2.0}))
    assert gate.main([baseline, new]) == 0


def test_regression_still_fails(tmp_path, capsys):
    baseline = write(tmp_path, "base.json", timings({"bench": 1.0}))
    new = write(tmp_path, "new.json",
                timings({"bench": 2.0, "extra": 1.0}))
    assert gate.main([baseline, new]) == 1
    assert "REGRESSED" in capsys.readouterr().out


def test_timings_are_gated_on_min(tmp_path):
    baseline = write(tmp_path, "base.json", timings({"bench": 1.0}))
    doubled_min = {"benchmarks": [{"name": "bench", "min": 2.0,
                                   "mean": 1.0}]}
    assert gate.main([baseline,
                      write(tmp_path, "min.json", doubled_min)]) == 1
    doubled_mean = {"benchmarks": [{"name": "bench", "min": 1.0,
                                    "mean": 2.0}]}
    assert gate.main([baseline,
                      write(tmp_path, "mean.json", doubled_mean)]) == 0


def test_within_threshold_passes(tmp_path):
    baseline = write(tmp_path, "base.json", timings({"bench": 1.0}))
    new = write(tmp_path, "new.json", timings({"bench": 1.1}))
    assert gate.main([baseline, new]) == 0


def test_removed_bench_is_reported_but_passes(tmp_path, capsys):
    baseline = write(tmp_path, "base.json",
                     timings({"gone": 1.0, "kept": 1.0}))
    new = write(tmp_path, "new.json", timings({"kept": 1.0}))
    assert gate.main([baseline, new]) == 0
    assert "removed" in capsys.readouterr().out


def test_one_sided_names_beyond_ten_print_as_a_count(tmp_path, capsys):
    baseline = write(tmp_path, "base.json", timings(
        {"bench%02d" % i: 1.0 for i in range(25)}))
    new = write(tmp_path, "new.json", timings({"bench00": 1.0}))
    assert gate.main([baseline, new]) == 0
    out = capsys.readouterr().out
    assert "bench10" in out and "bench11" not in out
    assert "and 14 more" in out


# -- matrix reports ----------------------------------------------------------

def entry(name, axes, **metrics):
    return {"name": name, "axes": axes, "metrics": metrics}


def matrix_doc():
    results = []
    for cipher in ("aes", "chacha"):
        for mtu in (1500, 9000):
            results.append(entry(
                "fig7/cipher=%s/mtu=%d" % (cipher, mtu),
                {"cipher": cipher, "mtu": mtu},
                gbps=10.0, done_at=2.0))
    return {"results": results}


def test_identical_matrix_passes(tmp_path, capsys):
    base = write(tmp_path, "base.json", matrix_doc())
    new = write(tmp_path, "new.json", matrix_doc())
    assert gate.main([base, new]) == 0
    assert "within the baseline" in capsys.readouterr().out


def test_seeded_regression_fails_grouped_by_axis(tmp_path, capsys):
    base = write(tmp_path, "base.json", matrix_doc())
    doc = matrix_doc()
    for item in doc["results"]:
        if item["axes"]["cipher"] == "chacha":
            item["metrics"]["gbps"] = 7.0       # -30% throughput
    new = write(tmp_path, "new.json", doc)
    assert gate.main([base, new]) == 1
    out = capsys.readouterr().out
    assert "cipher=chacha" in out
    assert "ALL points of this value" in out
    assert "2/2" in out


def test_lower_is_better_direction(tmp_path):
    base = write(tmp_path, "base.json", matrix_doc())
    doc = matrix_doc()
    doc["results"][0]["metrics"]["done_at"] = 2.5   # +25% completion
    assert gate.main([base, write(tmp_path, "new.json", doc)]) == 1
    doc = matrix_doc()
    doc["results"][0]["metrics"]["done_at"] = 1.5   # faster: fine
    doc["results"][0]["metrics"]["gbps"] = 14.0     # more: fine
    assert gate.main([base, write(tmp_path, "new2.json", doc)]) == 0


def test_nested_metrics_are_gated(tmp_path):
    """The c1m rows nest their latency percentiles and the fluid rows
    their probe: the gate must reach one level down."""
    def doc(p99=0.008, utilization=1.0):
        return {"results": [
            entry("c1m/sessions=120", {"sessions": 120},
                  handshake_latency={"count": 150, "p99": p99}),
            entry("fluid/scenario=incast", {"scenario": "incast"},
                  probe={"bottleneck_utilization": utilization,
                         "time": 1.3})]}
    base = write(tmp_path, "base.json", doc())
    assert gate.main([base, write(tmp_path, "same.json", doc())]) == 0
    assert gate.main([base, write(tmp_path, "slow.json",
                                  doc(p99=0.010))]) == 1
    assert gate.main([base, write(tmp_path, "idle.json",
                                  doc(utilization=0.7))]) == 1


def test_drift_within_threshold_passes(tmp_path):
    base = write(tmp_path, "base.json", matrix_doc())
    doc = matrix_doc()
    for item in doc["results"]:
        item["metrics"]["gbps"] = 9.0               # -10% < 20%
    assert gate.main([base, write(tmp_path, "new.json", doc)]) == 0
    assert gate.main([base, write(tmp_path, "new.json", doc),
                      "--threshold", "0.05"]) == 1


def test_new_and_removed_points_are_informational(tmp_path, capsys):
    base_doc = matrix_doc()
    new_doc = matrix_doc()
    base_doc["results"].append(entry("fig7/cipher=retired/mtu=0",
                                     {"cipher": "retired"}, gbps=1.0))
    new_doc["results"].append(entry("fig7/cipher=fresh/mtu=0",
                                    {"cipher": "fresh"}, gbps=1.0))
    assert gate.main([write(tmp_path, "b.json", base_doc),
                      write(tmp_path, "n.json", new_doc)]) == 0
    out = capsys.readouterr().out
    assert "no baseline yet" in out
    assert "present only in baseline" in out


def test_new_error_fails_the_gate(tmp_path, capsys):
    base = write(tmp_path, "base.json", matrix_doc())
    doc = matrix_doc()
    doc["results"][0] = {"name": doc["results"][0]["name"],
                         "error": "RuntimeError: boom"}
    assert gate.main([base, write(tmp_path, "new.json", doc)]) == 1
    assert "NEW ERROR" in capsys.readouterr().out


def test_non_directional_metrics_ignored(tmp_path):
    base_doc = matrix_doc()
    new_doc = matrix_doc()
    for item in base_doc["results"]:
        item["metrics"]["series_digest"] = 1.0
    for item in new_doc["results"]:
        item["metrics"]["series_digest"] = 99.0
    assert gate.main([write(tmp_path, "b.json", base_doc),
                      write(tmp_path, "n.json", new_doc)]) == 0
