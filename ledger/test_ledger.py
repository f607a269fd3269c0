"""Tests of the benchmark itself.  Run with ``python -m pytest ledger -q``
(tier-1 does not collect this directory)."""

import argparse
import cProfile
import io
import json
import os
import random
import subprocess
import sys
import textwrap

import child
import compare
import run
import tracing
import workloads
from stats import percentile, spread

LEDGER = os.path.dirname(os.path.abspath(__file__))
SPEC = run.load_spec()
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def test_quick_run_emits_exactly_the_declared_names(tmp_path):
    report_path = tmp_path / "report.json"
    done = subprocess.run(
        [sys.executable, os.path.join(LEDGER, "run.py"), "--quick",
         "--json", str(report_path), "--trace-dir", str(tmp_path / "trace")],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, cwd=str(tmp_path))
    assert done.returncode == 0, done.stdout.decode()
    report = json.loads(report_path.read_text())
    assert set(report["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, entry in report["workloads"].items():
        assert set(entry["end_to_end"]) == END_TO_END
        assert all(len(v) == 1 for v in entry["end_to_end"].values()), name
        assert entry["failed"] == 0
        assert set(entry["per_layer"]) | set(report["probes"]) == PER_LAYER
        assert not set(entry["per_layer"]) & set(report["probes"])
        trace = json.loads((tmp_path / "trace" / (name + ".json")).read_text())
        layers = sum(v for k, v in trace["metrics"].items()
                     if k.endswith(".self_s"))
        assert abs(layers - trace["profiled_s"]) <= 0.01 * trace["profiled_s"]
        spans = (tmp_path / "trace" / (name + ".spans.jsonl")).read_text()
        assert all(set(json.loads(line)) == {"id", "parent", "name", "t0",
                                             "t1"}
                   for line in spans.splitlines())
        assert spans


def test_driver_entry_prints_one_result_line(tmp_path):
    for trace, declared in ((0, END_TO_END), (1, PER_LAYER)):
        done = subprocess.run(
            [sys.executable, os.path.join(LEDGER, "run.py"), "--quick",
             "--workload", "loopback_engine", "--seed", "5", "--seconds", "1",
             "--trace", str(trace), "--trace-dir", str(tmp_path)],
            stdout=subprocess.PIPE, cwd=str(tmp_path), check=True)
        result = json.loads(done.stdout.decode().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert set(result["metrics"]) == declared
        assert all(set(m) == {"value", "unit"}
                   for m in result["metrics"].values())


def test_builtin_time_is_charged_to_the_callers_layer():
    from repro.crypto import FFDHE2048

    rng = random.Random(1)
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(3):
        FFDHE2048.generate(rng)       # nearly all of it inside pow()
    profile.disable()
    layers, total = tracing.bucket_profile(profile.getstats())
    assert layers["crypto"] > 0.9 * total
    assert abs(sum(layers.values()) - total) <= 0.01 * total
    assert tracing.layer_of(os.path.join(
        tracing.SRC, "repro", "core", "drivers", "sockets.py")) == "drivers"
    assert tracing.layer_of(os.path.join(
        tracing.SRC, "repro", "core", "record.py")) == "engine"
    assert tracing.layer_of(os.path.join(
        tracing.SRC, "repro", "qlog", "writer.py")) == "obs"
    assert tracing.layer_of(__file__) == "other"


def test_percentiles_leave_ten_samples_beyond():
    thirty, sixty = list(range(1, 31)), list(range(1, 61))
    random.Random(3).shuffle(thirty)
    assert percentile(thirty, 66) == 20
    assert percentile(sixty, 80) == 48
    assert percentile(thirty, 50) == 15
    assert spread([10.0, 10.0, 10.0, 10.0]) == 0.0


def test_failing_iteration_is_booked_and_the_child_goes_on(capsys):
    calls = []

    def flaky(variant, spans, observer):
        calls.append(variant)
        if len(calls) == 3:
            raise workloads.CheckFailed("deliberate")
        return {"payload_bytes": 1, "ops": 1, "sim_s": 1.0,
                "events_emitted": 0, "digest": "same"}

    workloads.WORKLOADS["flaky"] = (lambda seed, scale: [{}], flaky)
    try:
        child.main(["--workload", "flaky", "--seed", "1", "--seconds", "0",
                    "--cycles", "4"])
    finally:
        del workloads.WORKLOADS["flaky"]
    lines = [json.loads(line)
             for line in capsys.readouterr().out.splitlines()]
    assert [line["event"] for line in lines] == \
        ["setup", "iter", "iter", "iter", "iter", "done"]
    assert [line["ok"] for line in lines[:-1]] == \
        [True, True, False, True, True]
    assert "deliberate" in lines[2]["error"]


FAKE_CHILD = """
    import json, sys, time
    def say(**fields):
        print(json.dumps(fields), flush=True)
    say(event="setup", ok=True, sizes={}, digest=None,
        peak_rss_mb=1.0)
    say(event="iter", ok=True, input=1, wall_s=0.5, payload_bytes=10,
        ops=2, peak_rss_mb=2.0)
    say(event="iter", ok=False, input=2, error="CheckFailed: deliberate",
        peak_rss_mb=2.0)
    say(event="iter", ok=True, input=1, wall_s=0.7, payload_bytes=10,
        ops=2, peak_rss_mb=3.0)
    say(event="iter", ok=True, input=0, wall_s=0.6, payload_bytes=12,
        ops=3, peak_rss_mb=3.5)
    if "hang" in sys.argv:
        time.sleep(60)
    say(event="done", peak_rss_mb=4.0)
"""


def test_watchdog_and_failures_raise_the_fail_count(tmp_path):
    script = tmp_path / "fake_child.py"
    script.write_text(textwrap.dedent(FAKE_CHILD))
    command = [sys.executable, str(script)]
    record = run.collect([command, command])
    assert (record["attempted"], record["failed"]) == (10, 2)
    metrics = run.end_to_end(record)
    # input 1 counts with its fastest iteration; one estimator, the
    # median over the inputs timed, for all three
    assert metrics["wall_s_p50"] == 0.55
    assert metrics["ops_per_s"] == 4.5 and metrics["payload_MBps"] == 2e-5
    assert metrics["peak_rss_mb"] == 4.0
    assert metrics["setup_s"] == min(record["setup_s"])

    # a hung child is killed; what it timed before still counts
    record = run.collect([command + ["hang"]], watchdog_s=0.5)
    assert (record["attempted"], record["failed"]) == (6, 2)
    assert "hung" in record["errors"][-1]
    assert run.end_to_end(record) == dict(metrics, peak_rss_mb=3.5,
                                          setup_s=record["setup_s"][0])


def test_a_run_with_failures_still_prints_its_result(tmp_path, capsys,
                                                     monkeypatch):
    script = tmp_path / "fake_child.py"
    script.write_text(textwrap.dedent(FAKE_CHILD))
    monkeypatch.setattr(run, "warm_bytecode", lambda: None)
    monkeypatch.setattr(run, "child_command",
                        lambda *args: [sys.executable, str(script)])
    args = argparse.Namespace(workload="bulk_download", seed=1, seconds=1.0,
                              trace=0, quick=False)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert run.run_one(args, SPEC, units) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == \
        (5 * run.SETUPS, run.SETUPS)
    assert set(result["metrics"]) == END_TO_END


def test_compare_is_direction_aware_and_knows_unresolved():
    def report(wall, rate, failed=0):
        entry = {"end_to_end": {name: [1.0] * 4 for name in END_TO_END},
                 "attempted": 40, "failed": failed, "digests": {"1": "d"},
                 "per_layer": {"sim_goodput_mbps": 8.0}}
        entry["end_to_end"]["wall_s_p50"] = wall
        entry["end_to_end"]["ops_per_s"] = rate
        return {"workloads": {"bulk_download": entry}}

    steady = report([1.0, 1.01, 0.99, 1.0], [50.0, 50.5, 49.5, 50.0])
    spec = dict(SPEC, workloads=[{"name": "bulk_download"}],
                end_to_end=[dict(metric, bound=0.1)
                            for metric in SPEC["end_to_end"]])

    def verdicts(other):
        out = io.StringIO()
        regressions = compare.compare(steady, other, spec, out)
        rows = {line.split()[1]: line.split()[-1]
                for line in out.getvalue().splitlines()[1:-1]}
        return regressions, rows

    assert verdicts(steady) == (0, dict.fromkeys(END_TO_END, "same"))
    slower = report([1.2, 1.21, 1.19, 1.2], [60.0, 60.5, 59.5, 60.0])
    regressions, rows = verdicts(slower)
    assert regressions == 1
    assert rows["wall_s_p50"] == "WORSE" and rows["ops_per_s"] == "better"
    noisy = report([0.8, 1.3, 0.9, 1.2], [50.0, 50.5, 49.5, 50.0])
    assert verdicts(noisy)[1]["wall_s_p50"] == "unresolved"
    assert verdicts(report([1.0] * 4, [50.0] * 4, failed=1))[0] == 1
    # a single run has no spread: every row is refused
    assert verdicts(report([1.0], [50.0]))[0] == 2
