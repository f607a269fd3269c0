"""Declarative experiment matrices with deterministic, cached
execution.

The paper's evaluation is a grid -- scenario x topology x cipher x
scheduler.  A *point* is a named ``(callable, kwargs)`` pair returning
a JSON-serialisable metrics dict; this module expands, runs and
serialises point lists:

- :class:`MatrixSpec` expands named :class:`Axis` values into
  :class:`MatrixPoint`\\ s (each remembers its axis assignment),
  dropping combinations a validity predicate rejects;
- :func:`filter_points` applies the runner's substring (default) or
  ``--exact`` name filters, and keeps the *scale* points (runs too long
  for every run) out of any selection that has other points in it;
- :func:`run_matrix` executes a point list with a content-addressed
  :class:`~repro.perf.cache.ResultCache`.  The cache is the only way a
  point is skipped: a stored success whose spec and source fingerprint
  match is served without running, each success is stored as it
  completes, and a failure is never stored.  An interrupted run
  resumes by running again; a failed point re-runs on the next run;
  after a source edit every point re-runs.

Determinism rules:

- **spawn** start method: workers never inherit parent state by fork,
  so a point's result cannot depend on what the parent imported or ran
  first.
- ``maxtasksperchild=1``: every point runs in a fresh interpreter.
  Simulation code keeps module/class-level counters (connection ids
  seed the ISS, links number themselves for observability); a reused
  worker would leak those from whatever point it ran previously.
- results are merged in canonical (input) order regardless of
  completion order.

So the serialised JSON is byte-identical for any jobs/shard split, any
interrupted history, and any cache hit/miss pattern.

Points must be importable top-level callables (pickled by reference);
closures and lambdas are rejected up front with a clear error rather
than a multiprocessing pickle backtrace.
"""

import itertools
import json
import pickle


class Axis:
    """One named dimension: ``Axis("mtu", (1500, 9000))``."""

    __slots__ = ("name", "values")

    def __init__(self, name, values):
        self.name = name
        self.values = tuple(values)
        if not self.values:
            raise ValueError("axis %r has no values" % name)

    def __repr__(self):
        return "Axis(%r, %r)" % (self.name, self.values)


class MatrixPoint:
    """One named point: ``fn(**kwargs)`` -> metrics dict, plus the axis
    assignment the gate groups regressions by (empty for a point that
    belongs to no spec) and whether it is a scale point."""

    __slots__ = ("name", "fn", "kwargs", "axes", "scale")

    def __init__(self, name, fn, kwargs=None, axes=None, scale=False):
        self.name = name
        self.fn = fn
        self.kwargs = dict(kwargs) if kwargs else {}
        self.axes = dict(axes) if axes else {}
        self.scale = scale

    def run(self):
        return self.fn(**self.kwargs)

    def __repr__(self):
        return "MatrixPoint(%r)" % (self.name,)


class MatrixSpec:
    """One point family: a callable crossed over named axes.

    ``valid`` (optional) receives the combo dict and returns False to
    drop a combination; ``to_kwargs`` (optional) maps the combo dict to
    the callable's kwargs (default: the combo itself); ``fixed`` kwargs
    are merged into every point; ``scale`` marks every point a scale
    point (see :func:`filter_points`).  Point names are
    ``family/axis=value/...`` in axis order, so name filters can select
    whole families (``fig8``) or single axis values (``cipher=chacha20``).
    """

    def __init__(self, family, fn, axes, valid=None, to_kwargs=None,
                 fixed=None, scale=False):
        self.family = family
        self.fn = fn
        self.axes = list(axes)
        self.valid = valid
        self.to_kwargs = to_kwargs
        self.fixed = dict(fixed) if fixed else {}
        self.scale = scale

    def point_name(self, combo):
        parts = [self.family]
        for axis in self.axes:
            parts.append("%s=%s" % (axis.name, combo[axis.name]))
        return "/".join(parts)

    def expand(self):
        """All valid combinations, in deterministic axis-value order."""
        points = []
        names = [axis.name for axis in self.axes]
        for values in itertools.product(*(a.values for a in self.axes)):
            combo = dict(zip(names, values))
            if self.valid is not None and not self.valid(combo):
                continue
            kwargs = dict(self.fixed)
            kwargs.update(self.to_kwargs(combo) if self.to_kwargs
                          else combo)
            points.append(MatrixPoint(self.point_name(combo), self.fn,
                                      kwargs, axes=combo, scale=self.scale))
        return points


def expand_matrix(specs):
    """Expand every spec, rejecting duplicate point names up front."""
    points = []
    seen = set()
    for spec in specs:
        for point in spec.expand():
            if point.name in seen:
                raise ValueError("duplicate matrix point %r" % point.name)
            seen.add(point.name)
            points.append(point)
    return points


def filter_points(points, patterns, exact=False):
    """The points a run selects.  Each pattern selects the points whose
    name contains it (is it, with ``exact``); no pattern selects every
    point.  A scale point is kept only by a pattern that selects nothing
    else: the default run and a family name (``fluid``) skip the scale
    rows, a pattern naming them (``flows=100000``) runs them."""
    chosen = set()
    for pattern in patterns or [None]:
        hits = [p for p in points if pattern is None
                or (p.name == pattern if exact else pattern in p.name)]
        plain = [p.name for p in hits if not p.scale]
        chosen.update(plain or [p.name for p in hits])
    return [p for p in points if p.name in chosen]


class MatrixStats:
    """Where each point's result came from: the cache or a worker."""

    def __init__(self):
        self.cache_hits = 0
        self.executed = 0
        self.errors = 0
        self.stored = 0

    def to_dict(self):
        return {
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "errors": self.errors,
            "stored": self.stored,
        }

    def summary(self):
        return ("%d hits / %d misses (%d errors, %d stored)"
                % (self.cache_hits, self.executed, self.errors,
                   self.stored))


def _entry_for(point, result):
    """The merged-JSON entry shape: result plus the axis assignment."""
    entry = dict(result)
    if point.axes:
        entry["axes"] = dict(point.axes)
    return entry


def _execute(job):
    """Worker entry: run one ``(index, point)`` job, tagging failures
    instead of crashing the pool (a broken point must not hide the
    others)."""
    index, point = job
    try:
        metrics = point.run()
    except Exception as exc:  # noqa: BLE001 - reported in the result
        return index, {"name": point.name, "error": "%s: %s"
                       % (type(exc).__name__, exc)}
    return index, {"name": point.name, "metrics": metrics}


def _check_picklable(points):
    # Many points share one callable (a family crosses a single fn over
    # hundreds of axis combinations); pickle each distinct fn once, not
    # once per point.
    checked = set()
    for point in points:
        if id(point.fn) in checked:
            continue
        checked.add(id(point.fn))
        try:
            pickle.dumps(point.fn)
        except Exception as exc:
            raise ValueError(
                "matrix point %r is not picklable (%s): points must be "
                "importable top-level functions, not closures/lambdas"
                % (point.name, exc)
            ) from exc


def run_matrix(points, jobs=1, cache=None):
    """Run a matrix point list; returns ``(results, stats)``.

    ``results`` is in canonical (input) order whatever the shard split
    or completion order.  A point is served from ``cache`` when its
    spec and source fingerprint match a stored success; every other
    point runs in a spawn worker, and its result is stored as soon as
    it lands unless it failed.  So an interrupted run resumes by
    running again, and a failed point re-runs on the next run.
    """
    points = list(points)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    stats = MatrixStats()
    results = [None] * len(points)

    todo = []
    for index, point in enumerate(points):
        hit = cache.get(point) if cache is not None else None
        if hit is not None:
            results[index] = _entry_for(point, hit)
            stats.cache_hits += 1
        else:
            todo.append((index, point))

    if todo:
        # Every remaining point pays for a fresh spawn interpreter; when
        # the cache resolved the whole matrix no pool is created at all.
        _check_picklable([point for _, point in todo])
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        workers = min(jobs, len(todo))
        with ctx.Pool(processes=workers, maxtasksperchild=1) as pool:
            for index, result in pool.imap_unordered(_execute, todo):
                point = points[index]
                results[index] = _entry_for(point, result)
                stats.executed += 1
                if "error" in result:
                    stats.errors += 1
                elif cache is not None:
                    cache.put(point, result)
                    stats.stored += 1

    return results, stats


def matrix_to_json(results, path=None):
    """Serialise results deterministically (sorted keys, fixed indent).

    Returns the JSON text; writes it to ``path`` when given.
    """
    text = json.dumps({"results": results}, sort_keys=True, indent=2) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
