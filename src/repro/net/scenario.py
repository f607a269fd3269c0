"""Scripted fault scenarios: *when* things go wrong.

:mod:`repro.net.faults` defines per-packet fault models; a
:class:`Scenario` declares the timeline on which they (and middleboxes,
link parameters, arbitrary callbacks) act, as a small fluent script:

.. code-block:: python

    scenario = (
        Scenario("rotating outage demo")
        .at(3.0).flap(topo.path(0), duration=2.0)       # hard outage
        .between(8.0, 12.0).loss(topo.path(1).c2s, 0.05)
        .between(15.0, 20.0).gilbert(topo.path(0).c2s,
                                     p_gb=0.02, p_bg=0.3)
        .every(5.0, start=25.0).call(rotate_paths)
        .install(sim)
    )

Directives added before :meth:`Scenario.install` are queued; directives
added afterwards schedule immediately, so a scenario can also be driven
live from test code.  Everything a scenario does flows through the
owning :class:`~repro.net.simulator.Simulator`'s event loop and RNG, so
two runs with the same seed replay the exact same fault sequence.

Targets: every verb accepts either a single
:class:`~repro.net.link.Link` (one-way faults) or any object with
``c2s``/``s2c`` attributes — e.g. a
:class:`~repro.net.topology.PathInfo` — in which case the fault is
applied to both directions.
"""

from repro.net.faults import GilbertElliott, LatencySpike, LinkFlap


def _links_of(target):
    """Normalise a scenario target to a list of unidirectional links."""
    if hasattr(target, "send") and hasattr(target, "connect"):
        return [target]
    if hasattr(target, "c2s") and hasattr(target, "s2c"):
        return [target.c2s, target.s2c]
    raise TypeError(
        "scenario target must be a Link or expose .c2s/.s2c, got %r"
        % (target,)
    )


class Scenario:
    """A deterministic, replayable schedule of fault directives."""

    def __init__(self, name="scenario"):
        self.name = name
        self.sim = None
        self._pending = []      # (time, period, until, fn, label)
        self._flaps = {}        # link -> LinkFlap managed by this scenario
        self.log = []           # (time, label) of fired directives

    # -- fluent entry points ------------------------------------------------

    def at(self, time):
        """One-shot directives firing at absolute sim time ``time``."""
        return Moment(self, time)

    def between(self, t0, t1):
        """Directives active during the window ``[t0, t1)``."""
        if t1 is not None and t1 <= t0:
            raise ValueError("empty scenario window [%r, %r)" % (t0, t1))
        return Window(self, t0, t1)

    def every(self, period, start=None, until=None):
        """Recurring directives: first at ``start`` (default one period
        in), then every ``period`` seconds until ``until``."""
        if period <= 0:
            raise ValueError("period must be positive")
        return Periodic(self, period,
                        period if start is None else start, until)

    # -- installation / scheduling -----------------------------------------

    def install(self, sim):
        """Bind to a simulator and schedule all queued directives."""
        if self.sim is not None:
            if self.sim is not sim:
                raise RuntimeError("scenario already installed on another sim")
            return self
        self.sim = sim
        pending, self._pending = self._pending, []
        for directive in pending:
            self._schedule(directive)
        return self

    def _add(self, time, fn, label, period=None, until=None):
        directive = (time, period, until, fn, label)
        if self.sim is None:
            self._pending.append(directive)
        else:
            self._schedule(directive)
        return self

    def _schedule(self, directive):
        time, period, until, fn, label = directive

        def fire():
            self.log.append((self.sim.now, label))
            fn()
            if period is not None:
                nxt = self.sim.now + period
                if until is None or nxt <= until:
                    self.sim.at(nxt, fire)

        self.sim.at(max(time, self.sim.now), fire)

    # -- managed per-link flap faults --------------------------------------

    def flap_fault(self, link):
        """The scenario-owned :class:`LinkFlap` for ``link``, attaching
        one on first use (a link needs only one; windows accumulate)."""
        fault = self._flaps.get(link)
        if fault is None:
            fault = LinkFlap(name="scenario-flap:%s" % (link.name or "link"))
            link.add_fault(fault)
            self._flaps[link] = fault
        return fault

    def __repr__(self):
        where = "installed" if self.sim is not None else (
            "%d pending" % len(self._pending))
        return "Scenario(%r, %s)" % (self.name, where)


class Moment:
    """One-shot directives at a fixed time (see :meth:`Scenario.at`)."""

    def __init__(self, scenario, time):
        self.scenario = scenario
        self.time = time

    def flap(self, target, duration=None):
        """Take the target down at ``t`` for ``duration`` seconds
        (``None`` = forever).  Windowed — needs no event-loop help, so
        it is also exactly reproducible under event reordering."""
        end = None if duration is None else self.time + duration
        for link in _links_of(target):
            self.scenario.flap_fault(link).add_window(self.time, end)
        return self.scenario

    def rst(self, link, match=None):
        """Arm a one-shot TCP RST injection on ``link`` at ``t``
        (attaches a fresh :class:`RstInjector` middlebox).  Returns the
        injector so callers can inspect ``injected``."""
        from repro.net.middlebox import RstInjector

        injector = RstInjector(name="scenario-rst", match=match)
        link.add_middlebox(injector)
        self.scenario._add(self.time, injector.activate, "rst")
        return injector

    def call(self, fn, *args):
        """Escape hatch: run ``fn(*args)`` at ``t``."""
        return self.scenario._add(
            self.time, lambda: fn(*args), getattr(fn, "__name__", "call"))


class Window:
    """Directives active during ``[t0, t1)`` (see
    :meth:`Scenario.between`)."""

    def __init__(self, scenario, t0, t1):
        self.scenario = scenario
        self.t0 = t0
        self.t1 = t1

    def loss(self, target, p):
        """Raise the i.i.d. loss rate to ``p`` inside the window, then
        restore whatever rate the link had when the window opened."""
        for link in _links_of(target):
            saved = []

            def begin(link=link, saved=saved):
                saved.append(link.loss_rate)
                link.loss_rate = p

            def finish(link=link, saved=saved):
                if saved:
                    link.loss_rate = saved.pop()

            self.scenario._add(self.t0, begin, "loss-on")
            if self.t1 is not None:
                self.scenario._add(self.t1, finish, "loss-off")
        return self.scenario

    def gilbert(self, target, p_gb, p_bg, loss_good=0.0, loss_bad=1.0,
                seed=None):
        """Gilbert–Elliott bursty loss confined to the window.  Returns
        the attached fault objects for stats inspection."""
        faults = []
        for link in _links_of(target):
            fault = GilbertElliott(p_gb, p_bg, loss_good=loss_good,
                                   loss_bad=loss_bad, seed=seed,
                                   start=self.t0, end=self.t1)
            link.add_fault(fault)
            faults.append(fault)
        return faults

    def spike(self, target, extra, seed=None):
        """Add ``extra`` seconds of one-way latency inside the window."""
        faults = []
        for link in _links_of(target):
            fault = LatencySpike(extra, start=self.t0, end=self.t1,
                                 seed=seed)
            link.add_fault(fault)
            faults.append(fault)
        return faults


class Periodic:
    """Recurring directives (see :meth:`Scenario.every`)."""

    def __init__(self, scenario, period, start, until):
        self.scenario = scenario
        self.period = period
        self.start = start
        self.until = until

    def call(self, fn, *args):
        """Run ``fn(*args)`` at ``start``, then every ``period`` s."""
        return self.scenario._add(
            self.start, lambda: fn(*args),
            getattr(fn, "__name__", "periodic"),
            period=self.period, until=self.until)
