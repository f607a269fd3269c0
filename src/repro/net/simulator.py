"""Deterministic discrete-event simulator core.

Every other component in the repository (TCP stack, TCPLS sessions,
MPTCP and QUIC baselines) runs on top of this event loop.  Time is a
float in seconds.  Events with equal timestamps fire in the order they
were scheduled, which keeps every experiment reproducible bit-for-bit.

The heap holds ``(time, seq, item)`` tuples, so ``heapq`` orders them
with C tuple comparison; ``seq`` is unique, so the comparison never
reaches ``item``.  An item is an :class:`Event` or a :class:`Timer`.

Cancellation is lazy: a cancelled event stays in the heap and is
skipped when popped.  The simulator counts dead entries and compacts
the heap (filter + heapify) once they dominate.  Compaction cannot
change firing order -- the heap order is total over ``(time, seq)`` --
so traces are bit-identical with or without it.

Timers that are re-armed far more often than they fire (the TCP
retransmission timeout moves on every ACK) use :meth:`Simulator.timer`:
a :class:`Timer` is re-armed in place and leaves its queued heap entry
where it is, instead of cancelling one event and pushing another.

A packet delivery is an ordinary :class:`Event` (``Link.send`` calls
:meth:`Simulator.at` once per admitted packet): there is one way onto
the heap, so ``stop()``, cancellation and compaction have one shape to
be right about.
"""

import heapq
import itertools
import random

#: default heap-compaction threshold: never compact below this many
#: cancelled entries (tiny heaps are cheaper to pop through than to
#: rebuild).  Per-instance override: ``Simulator(min_compact=N)``.
MIN_COMPACT = 64


class Event:
    """A scheduled callback.

    Returned by :meth:`Simulator.schedule` / :meth:`Simulator.at` so the
    caller can cancel a pending timer (e.g. a retransmission timeout
    that was satisfied by an ACK).
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(self, time, seq, fn, args, sim=None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self):
        """Prevent the event from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            sim._note_cancelled()


class Timer:
    """A re-armable one-shot timer (:meth:`Simulator.timer`).

    ``arm(delay)`` behaves exactly like cancelling a pending event and
    calling :meth:`Simulator.schedule` again -- it draws its sequence
    number at the same moment, so the timer fires at the same place in
    the total ``(time, seq)`` order -- but it does not touch the heap
    when the entry already queued fires no later than the new deadline.
    That entry pops *stale*, finds the ``(deadline, seq)`` reserved by
    the latest ``arm()`` and re-enters the heap under exactly that key.
    Only a deadline *earlier* than the queued entry needs a new push;
    the superseded entry is then dead weight like a cancelled event.

    At most one heap entry per timer is live (``_entry_seq`` names it);
    an armed timer always has one, keyed no later than its deadline.
    """

    __slots__ = ("fn", "args", "armed", "deadline", "_seq", "_sim",
                 "_entry_time", "_entry_seq")

    def __init__(self, sim, fn, args):
        self.fn = fn
        self.args = args
        #: True from ``arm()`` until the timer fires or is cancelled.
        self.armed = False
        #: absolute firing time of the latest ``arm()``.
        self.deadline = None
        self._seq = None
        self._sim = sim
        self._entry_time = None
        self._entry_seq = None

    def arm(self, delay):
        """(Re)start the timer to fire ``delay`` seconds from now."""
        self.arm_at(self._sim.now + delay)

    def arm_at(self, deadline):
        """(Re)start the timer to fire at absolute simulated time
        ``deadline`` (the :meth:`Simulator.at` of timers)."""
        sim = self._sim
        if deadline < sim.now:
            raise ValueError(
                "cannot schedule into the past: time=%r < now=%r"
                % (deadline, sim.now))
        seq = next(sim._seq)
        if self._entry_seq is not None and self._entry_time <= deadline:
            if not self.armed:
                # cancel() wrote the queued entry off; take it back.
                sim._cancelled -= 1
                self.armed = True
            self.deadline = deadline
            self._seq = seq
            return
        superseded = self.armed
        self.armed = True
        self.deadline = self._entry_time = deadline
        self._seq = self._entry_seq = seq
        heapq.heappush(sim._queue, (deadline, seq, self))
        if superseded:
            sim._note_cancelled()

    def cancel(self):
        """Stop the timer.  Idempotent; it can be armed again."""
        if self.armed:
            self.armed = False
            self._sim._note_cancelled()

    def _due(self, seq):
        """The heap entry numbered ``seq`` was popped: True if the
        timer expires now (it is then disarmed), False if the entry was
        dead or stale (a stale one has re-entered the heap)."""
        sim = self._sim
        if self._entry_seq != seq:
            sim._cancelled -= 1  # superseded by an earlier deadline
            return False
        if not self.armed:
            self._entry_seq = None
            sim._cancelled -= 1
            return False
        if self._seq != seq:
            # Re-armed since this entry was pushed: re-enter under the
            # key the latest arm() reserved.
            self._entry_time = self.deadline
            self._entry_seq = self._seq
            heapq.heappush(sim._queue, (self.deadline, self._seq, self))
            return False
        self.armed = False
        self._entry_seq = None
        return True


class Simulator:
    """Single-threaded discrete-event loop with deterministic ordering.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned random generator.  All stochastic
        behaviour (link loss, jitter) must draw from :attr:`rng` so runs
        are reproducible.
    min_compact:
        Heap-compaction threshold for this instance (defaults to
        :data:`MIN_COMPACT`): lazy-cancelled entries are only swept once
        at least this many have accumulated *and* they dominate the
        heap.
    """

    def __init__(self, seed=0, min_compact=None):
        from repro.obs.bus import EventBus

        self.now = 0.0
        self.rng = random.Random(seed)
        self.min_compact = MIN_COMPACT if min_compact is None \
            else int(min_compact)
        self._queue = []
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
        #: cancelled-but-still-queued event count; keeps
        #: :attr:`pending_events` O(1) and drives compaction.
        self._cancelled = 0
        #: number of heap compactions performed (perf observability).
        self.compactions = 0
        #: always 0: read by ``ledger/tracing.py`` (``net.train_peels``);
        #: the ``benchmark``-archetype PR that edits the ledger may drop it.
        self.train_peels = 0
        #: the simulation-wide observability bus (see :mod:`repro.obs`);
        #: emission is a near-no-op until something subscribes.
        self.bus = EventBus(self)
        #: the attached fluid fast-forward engine, if any (see
        #: :mod:`repro.net.fluid`).  A forced :class:`LinkFlap` notifies
        #: it of an immediate capacity change through this hook.
        self.fluid = None

    def attach_fluid(self, engine):
        """Install a :class:`~repro.net.fluid.FluidEngine` as this
        simulation's fast-forward layer (done by its constructor)."""
        self.fluid = engine
        return engine

    def schedule(self, delay, fn, *args):
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("cannot schedule into the past: delay=%r" % delay)
        return self.at(self.now + delay, fn, *args)

    def at(self, time, fn, *args):
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise ValueError(
                "cannot schedule into the past: time=%r < now=%r" % (time, self.now)
            )
        seq = next(self._seq)
        event = Event(time, seq, fn, args, self)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def timer(self, fn, *args):
        """A disarmed :class:`Timer` that calls ``fn(*args)`` each time
        it expires.  Use it instead of :meth:`schedule` for a timeout
        that is moved or cancelled much more often than it fires."""
        return Timer(self, fn, args)

    def _note_cancelled(self):
        """A queued entry went dead (cancelled event, stopped timer,
        superseded timer entry); compact if dead entries dominate the
        heap."""
        self._cancelled += 1
        if (self._cancelled >= self.min_compact
                and self._cancelled * 2 >= len(self._queue)):
            self._compact()

    def _compact(self):
        """Drop dead entries and re-heapify, in place.

        Heap order is total over ``(time, seq)``, so rebuilding the heap
        from the survivors pops in exactly the same order the lazy path
        would have produced.  The list object is kept (``run`` holds it
        across callbacks that may land here).
        """
        queue = self._queue
        before = len(queue)
        live = []
        for entry in queue:
            item = entry[2]
            if type(item) is Timer:
                if item._entry_seq != entry[1]:
                    continue  # superseded by an earlier deadline
                if not item.armed:
                    item._entry_seq = None
                    continue
            elif item.cancelled:
                continue
            live.append(entry)
        queue[:] = live
        heapq.heapify(queue)
        self._cancelled = 0
        self.compactions += 1
        if self.bus.wants("perf"):
            self.bus.emit("perf", "heap_compaction", {
                "before": before,
                "after": len(queue),
                "compactions": self.compactions,
            })

    def run(self, until=None, max_events=None):
        """Drain the event queue.

        Parameters
        ----------
        until:
            Stop once simulated time would exceed this value.  Events at
            exactly ``until`` still run.
        max_events:
            Safety valve for tests; raise ``RuntimeError`` if more than
            this many events fire.

        :meth:`stop` ends the run early, with the clock left at the
        last event fired.
        """
        self._running = True
        self._stopped = False
        fired = 0
        queue = self._queue
        pop = heapq.heappop
        try:
            while queue:
                if self._stopped:
                    break
                time = queue[0][0]
                if until is not None and time > until:
                    self.now = until
                    break
                _, seq, item = pop(queue)
                if type(item) is Event:
                    # Detach so a cancel() after firing (or after this
                    # pop) cannot skew the in-queue cancelled count.
                    item._sim = None
                    if item.cancelled:
                        self._cancelled -= 1
                        continue
                elif not item._due(seq):
                    continue
                self.now = time
                item.fn(*item.args)
                fired += 1
                if max_events is not None and fired > max_events:
                    raise RuntimeError("simulation exceeded %d events" % max_events)
            else:
                if until is not None and until > self.now:
                    self.now = until
        finally:
            self._running = False
        return fired

    def stop(self):
        """End the :meth:`run` in progress once the event now firing
        returns.  Everything still queued stays queued, so a later
        ``run()`` resumes where this one left off; outside a run it
        does nothing."""
        self._stopped = True

    def run_until(self, predicate, check_interval=0.01, timeout=600.0):
        """Run until ``predicate()`` is true or ``timeout`` sim-seconds pass.

        Returns True if the predicate became true, False on timeout.
        The predicate is evaluated every ``check_interval`` seconds of
        simulated time, interleaved with normal event processing.
        """
        deadline = self.now + timeout
        satisfied = [False]

        def probe():
            if predicate():
                satisfied[0] = True
                return
            if self.now < deadline:
                self.schedule(check_interval, probe)

        probe()
        while self._queue and not satisfied[0] and self.now <= deadline:
            self.run(until=min(deadline, self.now + check_interval))
            if satisfied[0] or self._stopped:
                break
        return satisfied[0] or predicate()

    def next_time(self):
        """When the first queued entry is due (``None`` with nothing
        queued).  A dead entry counts too, so the answer may be early,
        never late: a loop sleeping until then at worst wakes for
        nothing."""
        queue = self._queue
        return queue[0][0] if queue else None

    @property
    def pending_events(self):
        """Number of events still due to fire: live events and armed
        timers (one each, however stale their heap entry) (O(1))."""
        return len(self._queue) - self._cancelled
