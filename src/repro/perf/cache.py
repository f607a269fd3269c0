"""Content-addressed result cache for matrix points.

A point's result is a pure function of (a) its canonical spec -- name,
callable identity and kwargs -- and (b) the source code that executes
it (the simulation is deterministic by construction; nothing reads
wall-clock time or unseeded randomness).  So results can be cached
across *runs and PRs*: a point whose spec and source fingerprint both
match a stored entry is skipped entirely, and only code that actually
changed pays for its matrix rows.

Keying rules:

- kwargs are canonicalised with explicit type tags, so ``{"x": 1}``
  and ``{"x": 1.0}`` never share a key (a point could legitimately
  branch on the type);
- the callable contributes ``module:qualname`` -- a point moved to a
  different function is a different computation;
- the *fingerprint* is a sha256 over every ``.py`` file under the
  fingerprinted roots (``src/repro`` + the bench modules by default),
  so any source edit invalidates the whole cache.  Coarse but safe:
  a stale hit silently masks a behaviour change, a spurious miss only
  costs one re-run.

Entries are one JSON file per key under ``root/<k[:2]>/<k>.json``,
written atomically (tmp + rename).  Any unreadable, unparsable or
mismatching entry is treated as a miss -- a corrupted cache must never
poison a run, only slow it down.
"""

import hashlib
import json
import os
import tempfile

#: default cache directory (relative to the invoking process's cwd)
DEFAULT_CACHE_DIR = ".bench_cache"
#: environment override, itself overridden by an explicit --cache-dir
CACHE_ENV_VAR = "REPRO_BENCH_CACHE"


def resolve_cache_dir(cli_value=None):
    """Cache root precedence: CLI flag > $REPRO_BENCH_CACHE > default."""
    if cli_value:
        return cli_value
    return os.environ.get(CACHE_ENV_VAR) or DEFAULT_CACHE_DIR


def _canon(value):
    """Type-tagged canonical form (JSON-stable, type-sensitive)."""
    if value is None:
        return ["none"]
    if isinstance(value, bool):          # before int: bool is an int subclass
        return ["bool", value]
    if isinstance(value, int):
        return ["int", value]
    if isinstance(value, float):
        return ["float", repr(value)]
    if isinstance(value, str):
        return ["str", value]
    if isinstance(value, bytes):
        return ["bytes", value.hex()]
    if isinstance(value, (list, tuple)):
        return ["list", [_canon(item) for item in value]]
    if isinstance(value, dict):
        return ["dict", sorted(
            [str(key), _canon(item)] for key, item in value.items()
        )]
    raise TypeError("unkeyable kwarg value %r (%s)" % (value, type(value)))


def canonical_point_spec(point):
    """The deterministic JSON text identifying one matrix point."""
    fn = point.fn
    spec = {
        "name": point.name,
        "fn": "%s:%s" % (getattr(fn, "__module__", "?"),
                         getattr(fn, "__qualname__", repr(fn))),
        "kwargs": _canon(point.kwargs),
    }
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def source_fingerprint(roots):
    """sha256 over every ``.py`` file under ``roots`` (files allowed).

    Paths are hashed relative to their root in sorted order, so the
    fingerprint is stable across machines and checkouts but changes
    when any fingerprinted source file changes, appears or disappears.
    """
    digest = hashlib.sha256()
    for root in roots:
        root = os.path.abspath(root)
        if os.path.isfile(root):
            files = [(os.path.basename(root), root)]
        else:
            files = []
            for dirpath, dirnames, filenames in os.walk(root):
                dirnames.sort()
                for filename in sorted(filenames):
                    if not filename.endswith(".py"):
                        continue
                    full = os.path.join(dirpath, filename)
                    files.append((os.path.relpath(full, root), full))
        for rel, full in sorted(files):
            digest.update(rel.encode())
            digest.update(b"\x00")
            with open(full, "rb") as handle:
                digest.update(handle.read())
            digest.update(b"\x00")
    return digest.hexdigest()


def default_fingerprint_roots():
    """``src/repro`` plus the ``benchmarks`` directory when present."""
    import repro

    roots = [os.path.dirname(os.path.abspath(repro.__file__))]
    repo = os.path.dirname(os.path.dirname(roots[0]))
    bench = os.path.join(repo, "benchmarks")
    if os.path.isdir(bench):
        roots.append(bench)
    return roots


class ResultCache:
    """Content-addressed store of successful point results.

    ``get`` returns the stored result dict (or ``None`` on any kind of
    miss); ``put`` stores a result -- error-tagged results are refused,
    a failed run must always re-execute.  Counters: ``hits``,
    ``misses``, ``stores``.
    """

    def __init__(self, root, fingerprint=""):
        self.root = root
        self.fingerprint = fingerprint
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def key(self, point):
        digest = hashlib.sha256()
        digest.update(canonical_point_spec(point).encode())
        digest.update(b"\x00")
        digest.update(self.fingerprint.encode())
        return digest.hexdigest()

    def _path(self, key):
        return os.path.join(self.root, key[:2], key + ".json")

    def get(self, point):
        key = self.key(point)
        try:
            with open(self._path(key)) as handle:
                entry = json.load(handle)
            if entry["key"] != key or \
                    entry["fingerprint"] != self.fingerprint or \
                    entry["spec"] != canonical_point_spec(point):
                raise ValueError("cache entry does not match point")
            result = entry["result"]
            if "metrics" not in result or "error" in result:
                raise ValueError("cached entry is not a success")
        except Exception:   # missing/corrupt/mismatched -> live run
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, point, result):
        if "error" in result or "metrics" not in result:
            return
        key = self.key(point)
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        entry = {
            "key": key,
            "spec": canonical_point_spec(point),
            "fingerprint": self.fingerprint,
            "result": result,
        }
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(entry, handle, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1

    @classmethod
    def open(cls, cli_dir=None, roots=None):
        """The standard construction: resolved root + source fingerprint."""
        root = resolve_cache_dir(cli_dir)
        fingerprint = source_fingerprint(
            roots if roots is not None else default_fingerprint_roots())
        return cls(root, fingerprint)
