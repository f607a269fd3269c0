"""The experiment matrix layer (``repro.perf.matrix``).

Pins the fleet-grade properties: declarative expansion with validity
predicates, substring/exact filters, one fresh interpreter per point,
the result cache as the only way a point is skipped (an interrupted run
resumes by running again, a failed point is never cached), and a merged
JSON that is byte-identical across jobs counts and cache states.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

from repro.perf import (
    Axis,
    MatrixSpec,
    ResultCache,
    MatrixPoint,
    expand_matrix,
    filter_points,
    matrix_to_json,
    run_matrix,
)


# Importable top-level callables: spawn workers pickle them by
# reference.

def cube_point(x=1, scale=1):
    return {"cube": x * x * x * scale}


def flaky_point(x=0, fail=False):
    if fail:
        raise RuntimeError("scripted failure %d" % x)
    return {"ok": x}


def connection_id_probe():
    """Exposes interpreter-state leaks: TcpConnection numbers itself
    with a class counter, so a reused worker would return different
    ids for the same point."""
    from repro.net import Simulator, build_multipath
    from repro.net.address import Endpoint
    from repro.tcp import TcpStack

    sim = Simulator(seed=1)
    topo = build_multipath(sim, n_paths=1)
    stack = TcpStack(sim, topo.client)
    conn = stack.connect(topo.path(0).client_addr,
                         Endpoint(topo.path(0).server_addr, 443))
    return {"conn_id": conn.conn_id, "iss": conn.iss}


def spec_for(values=(1, 2, 3), family="unit"):
    return MatrixSpec(family, cube_point,
                      [Axis("x", values), Axis("scale", (1, 10))],
                      to_kwargs=lambda c: dict(c))


# -- expansion ---------------------------------------------------------------

def test_expansion_names_axes_and_kwargs():
    points = spec_for().expand()
    assert len(points) == 6
    first = points[0]
    assert first.name == "unit/x=1/scale=1"
    assert first.axes == {"x": 1, "scale": 1}
    assert first.kwargs == {"x": 1, "scale": 1}
    assert [p.name for p in points] == [
        "unit/x=1/scale=1", "unit/x=1/scale=10",
        "unit/x=2/scale=1", "unit/x=2/scale=10",
        "unit/x=3/scale=1", "unit/x=3/scale=10"]


def test_validity_predicate_drops_combinations():
    spec = MatrixSpec("unit", cube_point,
                      [Axis("x", (1, 2, 3)), Axis("scale", (1, 10))],
                      valid=lambda c: c["scale"] == 1 or c["x"] > 2)
    names = [p.name for p in spec.expand()]
    assert "unit/x=1/scale=10" not in names
    assert "unit/x=3/scale=10" in names
    assert len(names) == 4


def test_fixed_kwargs_and_to_kwargs_mapping():
    spec = MatrixSpec("unit", cube_point, [Axis("n", (2,))],
                      to_kwargs=lambda c: {"x": c["n"]},
                      fixed={"scale": 100})
    (point,) = spec.expand()
    assert point.kwargs == {"x": 2, "scale": 100}
    assert point.run() == {"cube": 800}


def test_duplicate_point_names_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        expand_matrix([spec_for(), spec_for()])


def test_empty_axis_rejected():
    with pytest.raises(ValueError, match="no values"):
        Axis("x", ())


def test_filter_substring_and_exact():
    points = spec_for().expand()
    assert len(filter_points(points, ["x=2"])) == 2
    assert len(filter_points(points, ["scale=10"])) == 3
    assert len(filter_points(points, None)) == 6
    exact = filter_points(points, ["unit/x=2/scale=1"], exact=True)
    assert [p.name for p in exact] == ["unit/x=2/scale=1"]
    assert filter_points(points, ["x=2"], exact=True) == []


def test_scale_points_run_only_when_a_pattern_names_them_alone():
    plain = spec_for(values=(1, 10)).expand()
    scale = MatrixSpec("unit", cube_point, [Axis("x", (100,)),
                                            Axis("scale", (1,))],
                       scale=True).expand()
    points = plain + scale

    def names(patterns, exact=False):
        return [p.name for p in filter_points(points, patterns, exact)]

    assert names(None) == [p.name for p in plain]
    assert names(["unit"]) == names(None)
    assert names(["x=10"]) == ["unit/x=10/scale=1", "unit/x=10/scale=10"]
    assert names(["x=100"]) == ["unit/x=100/scale=1"]
    assert names(["unit/x=100/scale=1"], exact=True) == names(["x=100"])
    assert names(["x=1/", "x=100"]) == [
        "unit/x=1/scale=1", "unit/x=1/scale=10", "unit/x=100/scale=1"]


# -- execution ---------------------------------------------------------------

POINTS = spec_for().expand()


def test_run_matrix_results_in_canonical_order(tmp_path):
    results, stats = run_matrix(POINTS, jobs=2)
    assert [r["name"] for r in results] == [p.name for p in POINTS]
    assert results[0]["metrics"] == {"cube": 1}
    assert results[0]["axes"] == {"x": 1, "scale": 1}
    assert stats.executed == len(POINTS)
    assert stats.cache_hits == 0


def test_empty_point_list():
    results, stats = run_matrix([], jobs=4)
    assert results == [] and stats.executed == 0


def test_fresh_interpreter_per_point():
    """Two identical simulation points must return identical ids even
    in the same worker slot -- maxtasksperchild=1 guarantees it."""
    points = [MatrixPoint("probe-a", connection_id_probe),
              MatrixPoint("probe-b", connection_id_probe)]
    (a, b), _ = run_matrix(points, jobs=1)
    assert a["metrics"] == b["metrics"]


def test_unpicklable_point_rejected_up_front():
    with pytest.raises(ValueError, match="not picklable"):
        run_matrix([MatrixPoint("lam", lambda: {})], jobs=1)


def test_picklability_checked_once_per_distinct_fn(monkeypatch):
    """A matrix crosses one fn over hundreds of points; the up-front
    pickle check must pay per distinct callable, not per point."""
    from repro.perf import matrix as matrix_module

    calls = []
    real_dumps = matrix_module.pickle.dumps

    def counting_dumps(obj, *args, **kwargs):
        calls.append(obj)
        return real_dumps(obj, *args, **kwargs)

    monkeypatch.setattr(matrix_module.pickle, "dumps", counting_dumps)
    matrix_module._check_picklable(
        [MatrixPoint("p%d" % i, cube_point, {"x": i}) for i in range(50)]
        + [MatrixPoint("q", flaky_point)])
    assert len(calls) == 2


def test_merged_json_identical_for_any_shard_split():
    serial, _ = run_matrix(POINTS, jobs=1)
    parallel, _ = run_matrix(POINTS, jobs=3)
    text = matrix_to_json(serial)
    assert text == matrix_to_json(parallel)
    assert text.endswith("\n")
    assert json.loads(text) == {"results": serial}


def test_cache_serves_second_run_without_a_pool(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"), "fp")
    cold, cold_stats = run_matrix(POINTS, jobs=2, cache=cache)
    assert cold_stats.executed == len(POINTS)
    assert cold_stats.stored == len(POINTS)
    warm_cache = ResultCache(str(tmp_path / "cache"), "fp")
    warm, warm_stats = run_matrix(POINTS, jobs=2, cache=warm_cache)
    assert warm_stats.executed == 0
    assert warm_stats.cache_hits == len(POINTS)
    assert matrix_to_json(cold) == matrix_to_json(warm)


def test_partially_cached_run_executes_only_the_misses(tmp_path):
    run_matrix(POINTS[:3], jobs=1,
               cache=ResultCache(str(tmp_path / "cache"), "fp"))
    results, stats = run_matrix(
        POINTS, jobs=2, cache=ResultCache(str(tmp_path / "cache"), "fp"))
    assert stats.cache_hits == 3
    assert stats.executed == len(POINTS) - 3
    assert results == run_matrix(POINTS, jobs=1)[0]


def test_error_points_are_not_cached(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"), "fp")
    points = [MatrixPoint("f/x=1", flaky_point, {"x": 1, "fail": True},
                          axes={"x": 1})]
    _, stats = run_matrix(points, jobs=1, cache=cache)
    assert stats.errors == 1 and stats.stored == 0
    _, again = run_matrix(points, jobs=1,
                          cache=ResultCache(str(tmp_path / "cache"),
                                            "fp"))
    assert again.executed == 1              # failures always re-run


def test_fully_cached_matrix_spawns_no_pool(tmp_path, monkeypatch):
    cache = ResultCache(str(tmp_path / "cache"), "fp")
    run_matrix(POINTS, jobs=2, cache=cache)

    import multiprocessing

    def boom(*args, **kwargs):
        raise AssertionError("pool spawned for a fully cached matrix")

    monkeypatch.setattr(multiprocessing, "get_context", boom)
    warm = ResultCache(str(tmp_path / "cache"), "fp")
    results, stats = run_matrix(POINTS, jobs=2, cache=warm)
    assert stats.cache_hits == len(POINTS)
    assert len(results) == len(POINTS)


def test_bad_jobs_rejected():
    with pytest.raises(ValueError):
        run_matrix(POINTS, jobs=0)


# -- the runner --------------------------------------------------------------

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUNNER = os.path.join(REPO, "benchmarks", "runner.py")


def run_runner(*args):
    subprocess.run([sys.executable, RUNNER] + list(args), check=True,
                   capture_output=True)


def test_profiled_run_writes_the_pools_json(tmp_path):
    """``--profile`` runs in-process but through the pool's own entry
    code, so its report carries the same axes blocks, byte for byte."""
    names = ",".join(
        "fig7/stack=tcpls/mtu=1500/cipher=aes128gcm/recsize=%d/ack=16" % size
        for size in (1024, 16384))
    pooled, profiled = tmp_path / "pooled.json", tmp_path / "profiled.json"
    run_runner("--exact", "--points", names, "--no-cache",
               "--json", str(pooled))
    run_runner("--exact", "--points", names, "--json", str(profiled),
               "--profile", str(tmp_path / "runner.prof"))
    assert len(json.loads(pooled.read_text())["results"]) == 2
    assert profiled.read_bytes() == pooled.read_bytes()


def test_one_way_to_skip_a_point():
    """The result cache is the only skip mechanism: no shard journal,
    no resume or rerun-failed switch, in the code or in the commands
    the docs tell a reader to run."""
    banned = {"ShardJournal", "journal_reused", "rerun_failed"}
    found = []
    for top in ("src", "benchmarks"):
        for dirpath, _, filenames in os.walk(os.path.join(REPO, top)):
            for filename in filenames:
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                with open(path) as handle:
                    tree = ast.parse(handle.read(), path)
                for node in ast.walk(tree):
                    names = {getattr(node, attr, None) for attr in
                             ("id", "attr", "name", "arg", "value")}
                    hits = banned & {n for n in names if isinstance(n, str)}
                    if isinstance(node, ast.arg) and node.arg == "resume":
                        hits.add("resume parameter")
                    found.extend("%s:%d %s" % (os.path.relpath(path, REPO),
                                               node.lineno, hit)
                                 for hit in hits)
    for rel in ("benchmarks/runner.py", "Makefile", "README.md"):
        with open(os.path.join(REPO, rel)) as handle:
            text = handle.read()
        found.extend("%s %s" % (rel, flag) for flag in
                     ("--resume", "--rerun-failed", "--journal-dir",
                      "bench-matrix-rerun") if flag in text)
    assert found == []
