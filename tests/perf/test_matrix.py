"""The experiment matrix layer (``repro.perf.matrix``).

Pins the fleet-grade properties: declarative expansion with validity
predicates, substring/exact filters, one fresh interpreter per point,
shard journals that survive an interrupt, resume that re-runs only
missing/failed points, rerun-failed that re-executes exactly the
error-tagged points, and a merged JSON that is byte-identical across
jobs counts, cache states and resume histories.
"""

import json

import pytest

from repro.perf import (
    Axis,
    MatrixSpec,
    ResultCache,
    MatrixPoint,
    ShardJournal,
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


# -- execution ---------------------------------------------------------------

POINTS = spec_for().expand()


def test_run_matrix_results_in_canonical_order(tmp_path):
    results, stats = run_matrix(POINTS, jobs=2)
    assert [r["name"] for r in results] == [p.name for p in POINTS]
    assert results[0]["metrics"] == {"cube": 1}
    assert results[0]["axes"] == {"x": 1, "scale": 1}
    assert stats.executed == len(POINTS)
    assert stats.skipped == 0


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


def test_merged_json_identical_for_any_shard_split(tmp_path):
    serial, _ = run_matrix(POINTS, jobs=1,
                           journal=ShardJournal(str(tmp_path / "j1")))
    parallel, _ = run_matrix(POINTS, jobs=3,
                             journal=ShardJournal(str(tmp_path / "j3")))
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


def test_journal_written_per_shard_as_points_complete(tmp_path):
    journal = ShardJournal(str(tmp_path / "journal"))
    run_matrix(POINTS, jobs=2, journal=journal)
    files = sorted(
        p.name for p in (tmp_path / "journal").iterdir())
    assert files == ["shard-0.jsonl", "shard-1.jsonl"]
    entries = journal.load()
    assert set(entries) == {p.name for p in POINTS}


def test_interrupted_shard_resumes_to_identical_json(tmp_path):
    """Kill mid-matrix (only a prefix journalled), resume, and the
    merged JSON must match an uninterrupted run byte for byte."""
    uninterrupted, _ = run_matrix(POINTS, jobs=2)

    journal = ShardJournal(str(tmp_path / "journal"))
    run_matrix(POINTS[:2], jobs=2, journal=journal)   # the "interrupt"
    # A torn tail line from the kill must not poison the journal.
    with open(journal._path(0), "a") as handle:
        handle.write('{"name": "unit/x=')
    resumed, stats = run_matrix(POINTS, jobs=2, journal=journal,
                                resume=True)
    assert stats.journal_reused == 2
    assert stats.executed == len(POINTS) - 2
    assert matrix_to_json(resumed) == matrix_to_json(uninterrupted)


def test_resume_reruns_failed_entries(tmp_path):
    points = [MatrixPoint("f/x=%d" % x, flaky_point,
                          {"x": x, "fail": x == 1}, axes={"x": x})
              for x in range(3)]
    journal = ShardJournal(str(tmp_path / "journal"))
    first, stats = run_matrix(points, jobs=1, journal=journal)
    assert first[1] == {"name": "f/x=1", "axes": {"x": 1},
                        "error": "RuntimeError: scripted failure 1"}
    assert stats.errors == 1

    fixed = [MatrixPoint(p.name, flaky_point, {"x": p.axes["x"],
                                               "fail": False},
                         axes=p.axes) for p in points]
    second, stats = run_matrix(fixed, jobs=1, journal=journal,
                               resume=True)
    assert stats.journal_reused == 2        # successes kept
    assert stats.executed == 1              # only the failure re-ran
    assert all("metrics" in r for r in second)


def test_rerun_failed_bypasses_cache_for_failed_points(tmp_path):
    """--rerun-failed must force fresh execution of exactly the
    error-tagged points even when a (stale-success) cache entry for
    the same key exists."""
    point = MatrixPoint("f/x=1", flaky_point, {"x": 1, "fail": False},
                        axes={"x": 1})
    cache = ResultCache(str(tmp_path / "cache"), "fp")
    cache.put(point, {"name": point.name, "metrics": {"ok": -999}})
    journal = ShardJournal(str(tmp_path / "journal"))
    journal.append(0, {"name": point.name, "error": "RuntimeError: x"})

    results, stats = run_matrix([point], jobs=1, cache=cache,
                                journal=journal, rerun_failed=True)
    assert stats.executed == 1 and stats.cache_hits == 0
    assert results[0]["metrics"] == {"ok": 1}


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
