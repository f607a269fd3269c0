"""Web-page specifications: dependency graphs of sized objects.

A page load is not one transfer -- it is a *graph* of them.  The HTML
arrives first; parsing it reveals stylesheets and scripts; those in
turn reveal fonts and images.  The transport stack only sees the
transfers it has been handed, so the page-load time (PLT) an end user
observes depends on how the scheduling policy maps the ready frontier
of that graph onto the available connections.

:class:`PageSpec` captures exactly that structure and nothing more:
objects with byte sizes and dependency edges.  Two constructors cover
the common cases -- :func:`synthetic_page` grows a deterministic
HTML -> CSS/JS -> image tree from a seed, and :func:`load_page` reads a
HAR-lite JSON file (a strict subset of the HTTP Archive format: just
names, sizes and dependencies).
"""

import json

__all__ = [
    "PageObject",
    "PageSpec",
    "load_page",
    "page_from_dict",
    "synthetic_page",
]


class PageObject:
    """One fetchable object of a page.

    Attributes
    ----------
    name:
        Unique object name within the page (e.g. ``"css-2"``).
    size:
        Response body size in bytes.
    depends_on:
        Tuple of object names that must *complete* before this object
        becomes fetchable (the parser discovers it only then).
    kind:
        Free-form content class (``"html"``, ``"css"``, ``"js"``,
        ``"img"``, ...); informational only.
    """

    __slots__ = ("name", "size", "depends_on", "kind")

    def __init__(self, name, size, depends_on=(), kind="object"):
        if size <= 0:
            raise ValueError("object size must be positive: %r" % (name,))
        self.name = name
        self.size = int(size)
        self.depends_on = tuple(depends_on)
        self.kind = kind

    def to_dict(self):
        return {
            "name": self.name,
            "size": self.size,
            "depends_on": list(self.depends_on),
            "kind": self.kind,
        }

    def __repr__(self):
        return "PageObject(%r, %d, deps=%r)" % (
            self.name, self.size, list(self.depends_on)
        )


class PageSpec:
    """A validated dependency graph of :class:`PageObject` entries.

    Construction checks that names are unique, every dependency names a
    declared object, and the graph is acyclic (a topological order is
    computed eagerly and reused by the transfer manager).
    """

    def __init__(self, name, objects):
        self.name = name
        self.objects = {}
        for obj in objects:
            if obj.name in self.objects:
                raise ValueError("duplicate object name: %r" % (obj.name,))
            self.objects[obj.name] = obj
        for obj in self.objects.values():
            for dep in obj.depends_on:
                if dep not in self.objects:
                    raise ValueError(
                        "%r depends on undeclared object %r" % (obj.name, dep)
                    )
        self.order = self._toposort()

    def _toposort(self):
        """Kahn's algorithm; raises on cycles.  Deterministic: ready
        names are processed in insertion order."""
        remaining = {
            name: set(obj.depends_on) for name, obj in self.objects.items()
        }
        order = []
        while remaining:
            ready = [name for name, deps in remaining.items() if not deps]
            if not ready:
                raise ValueError(
                    "dependency cycle among %r" % (sorted(remaining),)
                )
            for name in ready:
                order.append(name)
                del remaining[name]
            for deps in remaining.values():
                deps.difference_update(ready)
        return order

    @property
    def total_bytes(self):
        return sum(obj.size for obj in self.objects.values())

    def __len__(self):
        return len(self.objects)

    def roots(self):
        """Objects with no dependencies (fetchable immediately)."""
        return [
            self.objects[name] for name in self.order
            if not self.objects[name].depends_on
        ]

    def dependents(self, name):
        """Objects that list ``name`` as a dependency."""
        return [
            obj for obj in self.objects.values() if name in obj.depends_on
        ]

    def critical_path_bytes(self):
        """Max cumulative bytes along any dependency chain -- a lower
        bound on serialised work regardless of parallelism."""
        best = {}
        for name in self.order:
            obj = self.objects[name]
            upstream = max(
                (best[d] for d in obj.depends_on), default=0
            )
            best[name] = upstream + obj.size
        return max(best.values()) if best else 0

    def to_dict(self):
        return {
            "name": self.name,
            "objects": [self.objects[n].to_dict() for n in self.order],
        }

    def __repr__(self):
        return "PageSpec(%r, %d objects, %d bytes)" % (
            self.name, len(self), self.total_bytes
        )


def _lcg(seed):
    """Tiny deterministic generator (no ``random`` module state, so
    pages are reproducible across processes and Python versions)."""
    state = (seed * 2654435761 + 1) & 0xFFFFFFFF

    def step(lo, hi):
        nonlocal state
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        return lo + state % (hi - lo + 1)

    return step


def synthetic_page(seed=0, n_objects=30, fanout=4, depth=3,
                   html_bytes=24_000, min_object=2_000, max_object=80_000):
    """Generate a deterministic synthetic page.

    The shape mirrors a typical page: one HTML root, a first tier of
    CSS/JS discovered by parsing it, then ``depth - 1`` further tiers
    of images/fonts hanging off earlier tiers, at most ``fanout``
    children per parent.  Sizes come from a seeded LCG, so the same
    ``seed`` always yields byte-identical specs.
    """
    if n_objects < 1:
        raise ValueError("n_objects must be >= 1")
    step = _lcg(seed)
    objects = [PageObject("html", html_bytes, (), kind="html")]
    tiers = [["html"]]
    kinds = ["css", "js", "img", "font"]
    remaining = n_objects - 1
    tier_index = 0
    while remaining > 0:
        tier_index += 1
        parents = tiers[-1]
        tier = []
        # Each parent fathers up to `fanout` children until the budget
        # for this tier runs out; the last tier absorbs any remainder.
        budget = min(remaining, max(1, len(parents) * fanout))
        if tier_index >= depth:
            budget = remaining
        for i in range(budget):
            parent = parents[i % len(parents)]
            kind = kinds[min(tier_index - 1, len(kinds) - 1)] \
                if tier_index <= 2 else kinds[2 + (i % 2)]
            name = "%s-%d" % (kind, len(objects))
            size = step(min_object, max_object)
            objects.append(PageObject(name, size, (parent,), kind=kind))
            tier.append(name)
        tiers.append(tier)
        remaining -= budget
    return PageSpec("synthetic-%d" % seed, objects)


def page_from_dict(data):
    """Build a :class:`PageSpec` from a HAR-lite dict (see
    :func:`load_page`).  Malformed input raises ``ValueError`` naming
    the field at fault."""
    if not isinstance(data, dict):
        raise ValueError("page must be a dict, got %s" % type(data).__name__)
    entries = data.get("objects")
    if not isinstance(entries, list):
        raise ValueError("page 'objects' must be a list")
    objects = []
    for i, entry in enumerate(entries):
        where = "objects[%d]" % i
        if not isinstance(entry, dict):
            raise ValueError("%s must be a dict" % where)
        name = entry.get("name")
        if not isinstance(name, str):
            raise ValueError("%s 'name' must be a string" % where)
        size = entry.get("size")
        if type(size) is not int or size <= 0:
            raise ValueError("%s 'size' must be a positive integer" % where)
        deps = entry.get("depends_on", ())
        if not isinstance(deps, (list, tuple)) or not all(
                isinstance(dep, str) for dep in deps):
            raise ValueError("%s 'depends_on' must be a list of names"
                             % where)
        objects.append(PageObject(name, size, tuple(deps),
                                  kind=entry.get("kind", "object")))
    return PageSpec(data.get("name", "page"), objects)


def load_page(path):
    """Load a page spec from a HAR-lite JSON file.

    The format is ``{"name": ..., "objects": [{"name", "size",
    "depends_on", "kind"}, ...]}`` -- exactly what
    :meth:`PageSpec.to_dict` emits, so specs round-trip.
    """
    with open(path, "r", encoding="utf-8") as fh:
        return page_from_dict(json.load(fh))
