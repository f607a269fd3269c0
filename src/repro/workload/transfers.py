"""Transfer management: walking a page's dependency graph.

The :class:`TransferManager` is the "browser" of the workload layer.
It releases objects as their dependencies complete, asks the
scheduling policy where each released transfer should run
(:meth:`~repro.core.engine.policy.Policy.assign_transfer` over the
pool's candidate snapshot), checks the choice out of the pool, and
hands the transfer to a stack-specific ``fetch`` callable
(:mod:`repro.workload.fetchers`).  Completions cascade: finishing the
HTML releases the CSS/JS tier, finishing those releases the images.

Every lifecycle edge is emitted on the obs bus in the ``workload``
category (``object_ready`` / ``object_start`` / ``object_done`` /
``page_load``), so a single capture of the bus yields both the
per-object waterfall and the page-load time without instrumenting any
transport code.
"""

from repro.obs.events import CAT_WORKLOAD

__all__ = ["Transfer", "TransferManager"]


class Transfer:
    """One page object's journey through the workload layer."""

    __slots__ = ("spec", "status", "t_ready", "t_start", "t_done",
                 "entry", "placement")

    def __init__(self, spec):
        self.spec = spec
        #: "blocked" -> "ready" -> "running" -> "done"
        self.status = "blocked"
        self.t_ready = None
        self.t_start = None
        self.t_done = None
        #: the PooledConnection carrying this transfer (while running)
        self.entry = None
        #: how the pool satisfied it: "reuse" / "share" / "new"
        self.placement = None

    @property
    def name(self):
        return self.spec.name

    @property
    def size(self):
        return self.spec.size

    def __repr__(self):
        return "Transfer(%r, %s)" % (self.name, self.status)


class TransferManager:
    """Drive one page load over a pool under a policy.

    Parameters
    ----------
    page:
        The :class:`~repro.workload.pages.PageSpec` to load.
    pool:
        A :class:`~repro.workload.pool.ConnectionPool`.
    policy:
        Any :class:`~repro.core.engine.policy.Policy` (its
        ``assign_transfer`` decision point is consulted per transfer).
    clock:
        Time source shared with the pool and the simulator.
    fetch:
        ``fetch(entry, transfer, done)`` -- start the transfer on the
        pooled connection and call ``done()`` (no arguments) when the
        last byte arrives.  The manager never blocks: the simulator
        drives fetches, completions re-enter through ``done``.
    host:
        Pool host key the page's objects are fetched from.
    bus:
        Optional obs bus for ``workload`` events.
    on_page_done:
        Optional zero-argument callable invoked once every object of
        the page has completed.
    """

    def __init__(self, page, pool, policy, clock, fetch, host="server",
                 bus=None, on_page_done=None):
        self.page = page
        self.pool = pool
        self.policy = policy
        self.clock = clock
        self.fetch = fetch
        self.host = host
        self.bus = bus
        self.on_page_done = on_page_done
        self.transfers = {
            name: Transfer(obj) for name, obj in page.objects.items()
        }
        self._completed = set()
        self._queue = []
        self.t_begin = None
        #: page-load time in seconds, set when the last object lands
        self.plt = None
        # Another manager's release may be what frees our capacity when
        # several pages share one pool.
        pool.add_capacity_listener(self._drain_queue)

    # -- driving -----------------------------------------------------------

    def start(self):
        """Release the page's root objects (call once; the rest of the
        page unfolds from completion callbacks)."""
        self.t_begin = self.clock.now
        for obj in self.page.roots():
            self._mark_ready(self.transfers[obj.name])

    @property
    def done(self):
        return len(self._completed) == len(self.transfers)

    def _mark_ready(self, transfer):
        transfer.status = "ready"
        transfer.t_ready = self.clock.now
        self._emit("object_ready", transfer, {
            "size": transfer.size, "kind": transfer.spec.kind,
        })
        self._launch(transfer)

    def _launch(self, transfer):
        view = self.pool.view(self.host)
        if not view.candidates():
            # Pool saturated: park the transfer; the next release
            # re-opens capacity and drains the queue in ready order.
            self._queue.append(transfer)
            return
        candidate = self.policy.assign_transfer(transfer, view)
        entry = self.pool.checkout(candidate)
        transfer.entry = entry
        transfer.placement = candidate.kind
        transfer.status = "running"
        transfer.t_start = self.clock.now
        self._emit("object_start", transfer, {
            "size": transfer.size,
            "placement": candidate.kind,
            "conn": entry.index,
            "policy": getattr(self.policy, "name", "custom"),
        })
        self.fetch(entry, transfer, lambda: self._on_done(transfer))

    def _on_done(self, transfer):
        transfer.status = "done"
        transfer.t_done = self.clock.now
        self.pool.release(transfer.entry)
        self._completed.add(transfer.name)
        self._emit("object_done", transfer, {
            "size": transfer.size,
            "conn": transfer.entry.index,
            "elapsed": transfer.t_done - transfer.t_start,
        })
        if self.done:
            self.plt = transfer.t_done - self.t_begin
            self._emit("page_load", transfer, {
                "page": self.page.name,
                "objects": len(self.transfers),
                "bytes": self.page.total_bytes,
                "plt": self.plt,
            })
            if self.on_page_done is not None:
                self.on_page_done()
            return
        # Freed capacity first (a parked transfer beats a newly ready
        # one -- it has been waiting longer), then newly released deps.
        self._drain_queue()
        for dependent in self.page.dependents(transfer.name):
            waiting = self.transfers[dependent.name]
            if waiting.status != "blocked":
                continue
            if all(d in self._completed for d in dependent.depends_on):
                self._mark_ready(waiting)

    def _drain_queue(self):
        while self._queue and self.pool.view(self.host).candidates():
            self._launch(self._queue.pop(0))

    # -- results -----------------------------------------------------------

    def waterfall(self):
        """Per-object timeline rows, in completion order (running or
        blocked objects sort last)."""
        rows = []
        for name in self.page.order:
            t = self.transfers[name]
            rows.append({
                "name": name,
                "kind": t.spec.kind,
                "size": t.size,
                "status": t.status,
                "t_ready": t.t_ready,
                "t_start": t.t_start,
                "t_done": t.t_done,
                "placement": t.placement,
                "conn": t.entry.index if t.entry is not None else None,
            })
        rows.sort(key=lambda r: (
            r["t_done"] if r["t_done"] is not None else float("inf"),
            r["name"],
        ))
        return rows

    def _emit(self, name, transfer, extra):
        bus = self.bus
        if bus is None or not bus.wants(CAT_WORKLOAD):
            return
        data = {"page": self.page.name, "object": transfer.name}
        data.update(extra)
        bus.emit(CAT_WORKLOAD, name, data)
