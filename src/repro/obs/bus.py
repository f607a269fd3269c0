"""The per-simulation event bus.

Every :class:`~repro.net.simulator.Simulator` owns one
:class:`EventBus` (``sim.bus``).  Instrumented layers *emit* onto it;
sinks *subscribe*, optionally narrowed to categories and to a scope
(e.g. one session or one stream).  With no matching subscriber an
``emit`` is a handful of attribute lookups, so instrumentation can stay
permanently wired into hot paths; emitters guarding expensive
data-dict construction should additionally check :meth:`EventBus.wants`.

A sink is any callable taking one :class:`~repro.obs.events.Event`, or
any object with an ``on_event(event)`` method (the protocol
:class:`~repro.qlog.QlogTracer` and the invariant checkers implement).
"""

from collections import deque

from repro.obs.events import Event


def _handler_for(sink):
    if callable(sink) and not hasattr(sink, "on_event"):
        return sink
    on_event = getattr(sink, "on_event", None)
    if on_event is None:
        raise TypeError(
            "sink %r is neither callable nor has on_event()" % (sink,)
        )
    return on_event


class Subscription:
    """One sink's registration on the bus.

    ``categories`` is ``None`` (all) or a frozenset of category names;
    ``where`` is ``None`` or a dict matched for equality against the
    event's ``data`` (the scoping mechanism: pass
    ``where={"session": sess.obs_id}`` or ``where={"stream": 3}``).
    """

    __slots__ = ("sink", "handler", "categories", "where", "active")

    def __init__(self, sink, categories, where):
        self.sink = sink
        self.handler = _handler_for(sink)
        self.categories = (
            None if categories is None else frozenset(categories)
        )
        self.where = dict(where) if where else None
        self.active = True

    def matches(self, event):
        if self.categories is not None and \
                event.category not in self.categories:
            return False
        if self.where:
            data = event.data
            for key, expected in self.where.items():
                if data.get(key) != expected:
                    return False
        return True


class EventBus:
    """Publish/subscribe fan-out for one simulation."""

    def __init__(self, sim):
        self.sim = sim
        self._subs = []
        # Emission iterates an immutable snapshot rebuilt only when the
        # subscriber set mutates, so the hot path never copies the list;
        # wants() answers from a per-category memo with the same
        # lifetime.  Both are invalidated together in _invalidate().
        self._snapshot = ()
        self._wants_cache = {}
        #: True while anything at all is subscribed: a plain attribute,
        #: so per-packet emitters can skip their hook without a call.
        self.subscribed = False
        #: total events emitted to at least one subscriber
        self.events_emitted = 0
        self._ids = {}

    # -- subscription ------------------------------------------------------

    def _invalidate(self):
        self._snapshot = tuple(self._subs)
        self._wants_cache = {}
        self.subscribed = bool(self._subs)

    def next_id(self, kind):
        """The next ordinal (from 1) of ``kind`` in this simulation.

        Every identifier an event carries -- TCP connection, session,
        unnamed link, fluid cohort -- is drawn here, so two runs of one
        seed emit identical events however many simulations the process
        ran before them.
        """
        ordinal = self._ids[kind] = self._ids.get(kind, 0) + 1
        return ordinal

    def subscribe(self, sink, categories=None, where=None):
        """Register ``sink``; returns the :class:`Subscription` (pass it
        to :meth:`unsubscribe`, or use it as a context manager)."""
        sub = Subscription(sink, categories, where)
        self._subs.append(sub)
        self._invalidate()
        return sub

    def unsubscribe(self, sub_or_sink):
        """Remove a subscription (or every subscription of a sink)."""
        if isinstance(sub_or_sink, Subscription):
            sub_or_sink.active = False
            if sub_or_sink in self._subs:
                self._subs.remove(sub_or_sink)
            self._invalidate()
            return
        for sub in [s for s in self._subs if s.sink is sub_or_sink]:
            sub.active = False
            self._subs.remove(sub)
        self._invalidate()

    def wants(self, category):
        """True if at least one live subscriber listens to ``category``.

        Emitters use this to skip building expensive data dicts on hot
        paths when nobody is looking; the answer is memoised until the
        subscriber set changes, so repeated calls are one dict lookup.
        """
        wanted = self._wants_cache.get(category)
        if wanted is None:
            wanted = any(
                sub.categories is None or category in sub.categories
                for sub in self._snapshot
            )
            self._wants_cache[category] = wanted
        return wanted

    # -- emission ----------------------------------------------------------

    def emit(self, category, name, data=None):
        """Publish one event at the current simulated time.

        Returns the :class:`~repro.obs.events.Event` if it was
        dispatched to at least one sink, else ``None`` (no event object
        is even built when nobody subscribed -- and an emit on a
        category no subscriber listens to is a memoised dict lookup).
        """
        subs = self._snapshot
        if not subs:
            return None
        if not self.wants(category):
            return None
        event = None
        delivered = False
        for sub in subs:
            if not sub.active:
                continue
            if sub.categories is not None and category not in sub.categories:
                continue
            if event is None:
                event = Event(self.sim.now, category, name, data or {})
            if sub.where:
                edata = event.data
                if any(edata.get(k) != v for k, v in sub.where.items()):
                    continue
            sub.handler(event)
            delivered = True
        if not delivered:
            return None
        self.events_emitted += 1
        return event


class CaptureSink:
    """Keeps every event (use for tests and short scenario runs)."""

    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append(event)

    def names(self):
        """The event-name sequence, in emission order."""
        return [e.name for e in self.events]

    def select(self, category=None, name=None, **data_filter):
        """Events matching the given category/name/data constraints."""
        out = []
        for event in self.events:
            if category is not None and event.category != category:
                continue
            if name is not None and event.name != name:
                continue
            if any(event.data.get(k) != v for k, v in data_filter.items()):
                continue
            out.append(event)
        return out

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


class RingBufferSink(CaptureSink):
    """Keeps only the most recent ``capacity`` events (flight-recorder
    style: cheap enough to leave armed across a long run, inspect after
    a failure)."""

    def __init__(self, capacity=4096):
        super().__init__()
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.events = deque(maxlen=capacity)
        self.seen = 0

    def on_event(self, event):
        self.events.append(event)
        self.seen += 1

    @property
    def dropped(self):
        """Events that fell off the front of the ring."""
        return max(self.seen - len(self.events), 0)
