"""The content-addressed result cache (``repro.perf.cache``).

The cache must be *safe by construction*: a key collision across
different specs, types or source states would silently serve a stale
result, so the keying rules are pinned here -- including the subtle
ones (``1`` vs ``1.0`` kwargs, cross-process stability, fingerprint
invalidation) -- and every failure mode of the store itself (missing,
corrupted, truncated entries) must degrade to a live run, never an
exception.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.perf import (
    MatrixPoint,
    ResultCache,
    run_matrix,
    source_fingerprint,
)
from repro.perf.cache import (
    CACHE_ENV_VAR,
    canonical_point_spec,
    resolve_cache_dir,
)


def metrics_point(x=1, label="a"):
    return {"x": x, "label": label}


def make_point(**kwargs):
    return MatrixPoint("unit/point", metrics_point, kwargs)


def make_cache(tmp_path, fingerprint="fp"):
    return ResultCache(str(tmp_path / "cache"), fingerprint)


def test_round_trip_and_counters(tmp_path):
    cache = make_cache(tmp_path)
    point = make_point(x=3)
    assert cache.get(point) is None
    _, cold = run_matrix([point], cache=cache)
    assert (cold.cache_hits, cold.executed, cold.stored) == (0, 1, 1)
    stored = cache.get(point)
    assert stored == {"name": point.name, "metrics": metrics_point(x=3)}
    _, warm = run_matrix([point], cache=cache)
    assert (warm.cache_hits, warm.executed, warm.stored) == (1, 0, 0)


def test_key_depends_on_name_fn_and_kwargs(tmp_path):
    cache = make_cache(tmp_path)
    base = make_point(x=1)
    assert cache.key(base) == cache.key(make_point(x=1))
    assert cache.key(base) != cache.key(make_point(x=2))
    assert cache.key(base) != cache.key(
        MatrixPoint("unit/other", metrics_point, {"x": 1}))
    assert cache.key(base) != cache.key(
        MatrixPoint("unit/point", make_point, {"x": 1}))


def test_value_type_changes_the_key(tmp_path):
    """``1`` and ``1.0`` must never share a key: a point can branch on
    the type, and a bool is not the int it compares equal to."""
    cache = make_cache(tmp_path)
    keys = {cache.key(make_point(x=value))
            for value in (1, 1.0, True, "1", None)}
    assert len(keys) == 5
    cache.put(make_point(x=1),
              {"name": "unit/point", "metrics": {"x": 1}})
    assert cache.get(make_point(x=1.0)) is None


def test_key_stable_across_processes(tmp_path):
    """sha256 of the canonical spec -- no id()s, no hash randomisation."""
    point = make_point(x=7, label="cross")
    here = ResultCache("unused", "fp-x").key(point)
    script = (
        "from repro.perf import ResultCache, MatrixPoint\n"
        "import tests.perf.test_cache as tc\n"
        "point = MatrixPoint('unit/point', tc.metrics_point,"
        " {'x': 7, 'label': 'cross'})\n"
        "print(ResultCache('unused', 'fp-x').key(point))\n"
    )
    repo = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(repo, "src"), repo]
        + env.get("PYTHONPATH", "").split(os.pathsep))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == here


def test_fingerprint_tracks_source_changes(tmp_path):
    src = tmp_path / "srcroot"
    src.mkdir()
    (src / "mod.py").write_text("A = 1\n")
    (src / "notes.txt").write_text("ignored\n")
    before = source_fingerprint([str(src)])
    assert before == source_fingerprint([str(src)])
    (src / "notes.txt").write_text("still ignored\n")
    assert source_fingerprint([str(src)]) == before
    (src / "mod.py").write_text("A = 2\n")
    after = source_fingerprint([str(src)])
    assert after != before
    (src / "extra.py").write_text("")
    assert source_fingerprint([str(src)]) != after


def test_source_change_invalidates_hits(tmp_path):
    src = tmp_path / "srcroot"
    src.mkdir()
    (src / "mod.py").write_text("A = 1\n")
    point = make_point(x=1)
    result = {"name": point.name, "metrics": {"x": 1}}
    cache = ResultCache(str(tmp_path / "cache"),
                        source_fingerprint([str(src)]))
    cache.put(point, result)
    assert cache.get(point) == result
    (src / "mod.py").write_text("A = 2\n")
    stale = ResultCache(str(tmp_path / "cache"),
                        source_fingerprint([str(src)]))
    assert stale.get(point) is None


@pytest.mark.parametrize("damage", [
    "not json at all",
    "{\"key\": \"wrong\"}",
    json.dumps({"key": None, "spec": "", "fingerprint": "fp",
                "result": {"error": "boom"}}),
    "",
])
def test_corrupted_entry_falls_through_to_a_live_run(tmp_path, damage):
    cache = make_cache(tmp_path)
    point = make_point(x=5)
    cache.put(point, {"name": point.name, "metrics": {"x": 5}})
    path = cache._path(cache.key(point))
    with open(path, "w") as handle:
        handle.write(damage)
    assert cache.get(point) is None
    cache.put(point, {"name": point.name, "metrics": {"x": 5}})
    assert cache.get(point) is not None


def test_error_results_are_never_cached(tmp_path):
    cache = make_cache(tmp_path)
    point = make_point(x=9)
    cache.put(point, {"name": point.name, "error": "RuntimeError: no"})
    assert cache.get(point) is None
    assert not os.path.exists(cache._path(cache.key(point)))


def test_unkeyable_kwarg_is_rejected():
    with pytest.raises(TypeError):
        canonical_point_spec(make_point(x=object()))


def test_cache_dir_resolution(monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    assert resolve_cache_dir(None) == ".bench_cache"
    monkeypatch.setenv(CACHE_ENV_VAR, "/tmp/envcache")
    assert resolve_cache_dir(None) == "/tmp/envcache"
    assert resolve_cache_dir("/tmp/cli") == "/tmp/cli"
