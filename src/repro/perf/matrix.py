"""Declarative experiment matrices with deterministic, resumable,
cached execution.

The paper's evaluation is a grid -- scenario x topology x cipher x
scheduler.  A *point* is a named ``(callable, kwargs)`` pair returning
a JSON-serialisable metrics dict; this module expands, runs and
serialises point lists:

- :class:`MatrixSpec` expands named :class:`Axis` values into
  :class:`MatrixPoint`\\ s (each remembers its axis assignment),
  dropping combinations a validity predicate rejects;
- :func:`filter_points` applies the runner's substring (default) or
  ``--exact`` name filters;
- :func:`run_matrix` executes a point list with a content-addressed
  :class:`~repro.perf.cache.ResultCache` (unchanged points are skipped
  entirely) and a :class:`ShardJournal` (per-shard JSONL files written
  as points complete), supporting ``resume`` (re-run only
  missing/failed entries) and ``rerun_failed`` (force re-execution of
  exactly the error-tagged entries).

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
interrupt/resume history, and any cache hit/miss pattern.

Points must be importable top-level callables (pickled by reference);
closures and lambdas are rejected up front with a clear error rather
than a multiprocessing pickle backtrace.
"""

import itertools
import json
import os
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
    belongs to no spec, e.g. a C1M shard)."""

    __slots__ = ("name", "fn", "kwargs", "axes")

    def __init__(self, name, fn, kwargs=None, axes=None):
        self.name = name
        self.fn = fn
        self.kwargs = dict(kwargs) if kwargs else {}
        self.axes = dict(axes) if axes else {}

    def run(self):
        return self.fn(**self.kwargs)

    def __repr__(self):
        return "MatrixPoint(%r)" % (self.name,)


class MatrixSpec:
    """One point family: a callable crossed over named axes.

    ``valid`` (optional) receives the combo dict and returns False to
    drop a combination; ``to_kwargs`` (optional) maps the combo dict to
    the callable's kwargs (default: the combo itself); ``fixed`` kwargs
    are merged into every point.  Point names are
    ``family/axis=value/...`` in axis order, so name filters can select
    whole families (``fig8``) or single axis values (``cipher=chacha20``).
    """

    def __init__(self, family, fn, axes, valid=None, to_kwargs=None,
                 fixed=None):
        self.family = family
        self.fn = fn
        self.axes = list(axes)
        self.valid = valid
        self.to_kwargs = to_kwargs
        self.fixed = dict(fixed) if fixed else {}

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
                                      kwargs, axes=combo))
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
    """Name filters: substring match by default, whole-name with exact."""
    if not patterns:
        return list(points)
    if exact:
        wanted = set(patterns)
        return [p for p in points if p.name in wanted]
    return [p for p in points
            if any(pattern in p.name for pattern in patterns)]


class ShardJournal:
    """Per-shard JSONL journals of completed point results.

    Shard ``k`` appends to ``<dir>/shard-<k>.jsonl`` as its points
    complete, so an interrupted run leaves a complete record of
    everything that finished.  ``load`` merges every shard file into a
    name -> entry dict (last write wins, so resumed runs may append
    fresh entries for names an older line also carries).
    """

    def __init__(self, directory):
        self.directory = directory

    def _path(self, shard):
        return os.path.join(self.directory, "shard-%d.jsonl" % shard)

    def append(self, shard, entry):
        os.makedirs(self.directory, exist_ok=True)
        with open(self._path(shard), "a") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")

    def load(self):
        entries = {}
        if not os.path.isdir(self.directory):
            return entries
        for filename in sorted(os.listdir(self.directory)):
            if not (filename.startswith("shard-")
                    and filename.endswith(".jsonl")):
                continue
            with open(os.path.join(self.directory, filename)) as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        entry = json.loads(line)
                    except ValueError:
                        continue    # torn tail line from an interrupt
                    if isinstance(entry, dict) and "name" in entry:
                        entries[entry["name"]] = entry
        return entries


class MatrixStats:
    """Where each point's result came from, plus wall bookkeeping."""

    def __init__(self):
        self.cache_hits = 0
        self.journal_reused = 0
        self.executed = 0
        self.errors = 0
        self.stored = 0

    @property
    def skipped(self):
        """Points that never executed this run (cache or journal)."""
        return self.cache_hits + self.journal_reused

    def to_dict(self):
        return {
            "cache_hits": self.cache_hits,
            "journal_reused": self.journal_reused,
            "executed": self.executed,
            "errors": self.errors,
            "stored": self.stored,
            "skipped": self.skipped,
        }

    def summary(self):
        return ("%d hits / %d misses / %d skipped "
                "(%d journal-reused, %d errors, %d stored)"
                % (self.cache_hits, self.executed, self.skipped,
                   self.journal_reused, self.errors, self.stored))


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


def run_matrix(points, jobs=1, cache=None, journal=None, resume=False,
               rerun_failed=False):
    """Run a matrix point list; returns ``(results, stats)``.

    ``results`` is in canonical (input) order whatever the shard split,
    completion order or resume history.  Resolution order per point:

    1. with ``resume``/``rerun_failed``: a successful journal entry is
       reused (error entries are always re-run);
    2. a cache hit (skipped when ``rerun_failed`` names this point as
       previously failed -- a forced fresh execution);
    3. live execution in a spawn worker; the result is journalled under
       the worker's shard and stored to the cache on success.
    """
    points = list(points)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    stats = MatrixStats()
    results = [None] * len(points)

    prior_failed = set()
    if journal is not None and (resume or rerun_failed):
        prior = journal.load()
        for index, point in enumerate(points):
            entry = prior.get(point.name)
            if entry is None:
                continue
            if "error" in entry:
                prior_failed.add(point.name)
                continue
            results[index] = entry
            stats.journal_reused += 1

    todo = []
    for index, point in enumerate(points):
        if results[index] is not None:
            continue
        force = rerun_failed and point.name in prior_failed
        if cache is not None and not force:
            hit = cache.get(point)
            if hit is not None:
                entry = _entry_for(point, hit)
                results[index] = entry
                stats.cache_hits += 1
                if journal is not None:
                    journal.append(index % jobs, entry)
                continue
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
                entry = _entry_for(point, result)
                results[index] = entry
                stats.executed += 1
                if "error" in result:
                    stats.errors += 1
                elif cache is not None:
                    cache.put(point, result)
                    stats.stored += 1
                if journal is not None:
                    journal.append(index % jobs, entry)

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
