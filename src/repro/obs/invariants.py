"""Attachable protocol invariant checkers.

An :class:`InvariantChecker` is a bus sink that watches the event
stream and records :class:`Violation` objects when the protocol breaks
one of its rules.  Checkers are pure observers: they never mutate
protocol state, so any test or benchmark can arm all of them with one
call::

    harness = arm_invariants(sim)          # before the scenario runs
    ...
    sim.run(until=30)
    harness.assert_clean()                 # raises with full details

With ``strict=True`` the first violation raises immediately
(:class:`InvariantViolationError`), which pins the failure to the exact
simulated instant it happened.

Shipped checkers (see DESIGN.md for the event taxonomy they consume):

- :class:`MonotoneSeqChecker` — per (session, stream) record send
  sequences count 0, 1, 2, ... with no gap or regression;
- :class:`NonceUniquenessChecker` — no (session, stream, seq) is ever
  sealed twice: per-crypto-context record numbers are single-use;
- :class:`CwndSanityChecker` — cwnd stays positive and ssthresh, once
  finite, stays >= the minimum window;
- :class:`FailoverSanityChecker` — failovers move streams onto a
  *different*, established, not-failed connection;
- :class:`LinkConservationChecker` — per link, packets out + packets
  dropped never exceed packets in (nothing is created or double-counted
  on a pipe), and equal them once the simulator has nothing queued
  (nothing vanishes on one either).
"""

from repro.obs.events import (
    CAT_LINK,
    CAT_RECOVERY,
    CAT_SESSION,
    CAT_TCP,
    CAT_TLS,
)


class Violation:
    """One structured invariant violation."""

    __slots__ = ("time", "invariant", "message", "event", "details")

    def __init__(self, time, invariant, message, event=None, details=None):
        self.time = time
        self.invariant = invariant
        self.message = message
        self.event = event
        self.details = details or {}

    def to_dict(self):
        return {
            "time": self.time,
            "invariant": self.invariant,
            "message": self.message,
            "details": dict(self.details),
        }

    def __repr__(self):
        return "Violation(t=%.6f, %s: %s)" % (
            self.time, self.invariant, self.message
        )


class InvariantViolationError(AssertionError):
    """Raised in strict mode (and by ``assert_clean``)."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = ["%d protocol invariant violation(s):" % len(self.violations)]
        lines += ["  - %r" % v for v in self.violations[:20]]
        if len(self.violations) > 20:
            lines.append("  ... and %d more" % (len(self.violations) - 20))
        super().__init__("\n".join(lines))


class InvariantChecker:
    """Base class: subscribe to ``categories``, record violations.

    Subclasses implement :meth:`on_event` (called for every event in
    their categories) and may override :meth:`finish` for end-of-run
    checks.  Use :meth:`violate` to record a finding.
    """

    #: categories this checker must be subscribed to
    categories = None
    #: short stable identifier used in violation records
    name = "invariant"
    #: the simulator under watch (set by :func:`arm_invariants`)
    sim = None

    def __init__(self, strict=False):
        self.strict = strict
        self.violations = []

    def on_event(self, event):  # pragma: no cover - abstract
        raise NotImplementedError

    def finish(self):
        """End-of-run hook (e.g. conservation residue checks)."""

    def violate(self, event, message, **details):
        violation = Violation(
            time=event.time if event is not None else -1.0,
            invariant=self.name,
            message=message,
            event=event,
            details=details,
        )
        self.violations.append(violation)
        if self.strict:
            raise InvariantViolationError([violation])
        return violation


class MonotoneSeqChecker(InvariantChecker):
    """Record send sequences per (session, stream) must be exactly
    0, 1, 2, ...  A regression means a crypto context was rewound; a
    gap means a record was sealed and lost before the wire."""

    categories = (CAT_TLS,)
    name = "monotone-seq"

    def __init__(self, strict=False):
        super().__init__(strict)
        self._next = {}

    def on_event(self, event):
        if event.name != "record_sealed":
            return
        key = (event.data.get("session"), event.data.get("stream"))
        seq = event.data.get("seq")
        expected = self._next.get(key, 0)
        if seq != expected:
            self.violate(
                event,
                "stream %s sealed seq %s, expected %s"
                % (key[1], seq, expected),
                session=key[0], stream=key[1], seq=seq, expected=expected,
            )
        self._next[key] = (seq if seq is not None else expected) + 1


class NonceUniquenessChecker(InvariantChecker):
    """No (session, stream, seq) may be sealed twice: per-stream IVs
    plus single-use record numbers are what keep AEAD nonces unique
    (Fig. 2 of the paper); re-sealing at an old sequence is catastrophic
    key reuse.  (Failover replays stored *ciphertexts*, which never
    re-seals, so a correct stack never trips this.)"""

    categories = (CAT_TLS,)
    name = "nonce-unique"

    def __init__(self, strict=False):
        super().__init__(strict)
        self._sealed = set()

    def on_event(self, event):
        if event.name != "record_sealed":
            return
        key = (event.data.get("session"), event.data.get("stream"),
               event.data.get("seq"))
        if key in self._sealed:
            self.violate(
                event,
                "nonce reuse: stream %s seq %s sealed twice"
                % (key[1], key[2]),
                session=key[0], stream=key[1], seq=key[2],
            )
        self._sealed.add(key)


class CwndSanityChecker(InvariantChecker):
    """cwnd must stay strictly positive; a finite ssthresh must stay at
    or above the controller's minimum window (RFC 5681 collapse floor).
    """

    categories = (CAT_TCP,)
    name = "cwnd-sane"

    def on_event(self, event):
        if event.name != "cwnd_updated":
            return
        cwnd = event.data.get("cwnd")
        ssthresh = event.data.get("ssthresh")
        min_cwnd = event.data.get("min_cwnd", 1)
        conn = event.data.get("conn")
        if cwnd is None or cwnd <= 0:
            self.violate(event, "conn %s cwnd %r not positive" % (conn, cwnd),
                         conn=conn, cwnd=cwnd)
        if ssthresh is not None and ssthresh < min_cwnd:
            self.violate(
                event,
                "conn %s ssthresh %r below minimum window %r"
                % (conn, ssthresh, min_cwnd),
                conn=conn, ssthresh=ssthresh, min_cwnd=min_cwnd,
            )


class FailoverSanityChecker(InvariantChecker):
    """Failover must land on a different connection that completed its
    handshake and has not itself failed (Sec. 3.3.2: streams migrate to
    a *working* connection); joins must not resurrect failed ids."""

    categories = (CAT_SESSION, CAT_RECOVERY)
    name = "failover-legal"

    def __init__(self, strict=False):
        super().__init__(strict)
        self._established = set()   # (session, conn)
        self._failed = set()

    def on_event(self, event):
        data = event.data
        session = data.get("session")
        if event.name == "conn_established" or event.name == "join":
            key = (session, data.get("conn"))
            self._established.add(key)
            self._failed.discard(key)
        elif event.name == "conn_failed":
            self._failed.add((session, data.get("conn")))
        elif event.name == "failover":
            source = (session, data.get("from"))
            target = (session, data.get("to"))
            if source == target:
                self.violate(event,
                             "failover onto the failed connection %s"
                             % (data.get("to"),),
                             session=session, conn=data.get("to"))
            if target in self._failed:
                self.violate(event,
                             "failover onto failed connection %s"
                             % (data.get("to"),),
                             session=session, conn=data.get("to"))
            elif target not in self._established:
                self.violate(event,
                             "failover onto never-established connection %s"
                             % (data.get("to"),),
                             session=session, conn=data.get("to"))


class LinkConservationChecker(InvariantChecker):
    """Per link: every delivered or dropped packet was first enqueued,
    so ``delivered + dropped <= enqueued`` at every instant, and the
    residue (in flight) is never negative.  ``finish()`` re-checks the
    final residue, which must be exactly zero once the simulator has no
    event left to fire: a packet that is neither delivered nor dropped
    by then was lost by the simulator, not by the network.  While
    events are still queued (``sim.run(until=...)`` callers) a positive
    residue is traffic in flight and passes."""

    categories = (CAT_LINK,)
    name = "link-conservation"

    def __init__(self, strict=False):
        super().__init__(strict)
        self._counts = {}   # link -> [enqueued, delivered, dropped]

    def on_event(self, event):
        link = event.data.get("link")
        counts = self._counts.setdefault(link, [0, 0, 0])
        if event.name == "enqueue":
            counts[0] += 1
            return
        if event.name == "deliver":
            counts[1] += 1
        elif event.name == "drop":
            counts[2] += 1
        else:
            return
        if counts[1] + counts[2] > counts[0]:
            self.violate(
                event,
                "link %s: delivered+dropped (%d+%d) exceeds enqueued (%d)"
                % (link, counts[1], counts[2], counts[0]),
                link=link, enqueued=counts[0], delivered=counts[1],
                dropped=counts[2],
            )

    def finish(self):
        quiescent = self.sim is not None and self.sim.pending_events == 0
        for link, (enq, dlv, drp) in self._counts.items():
            residue = enq - dlv - drp
            if residue < 0 or (residue and quiescent):
                self.violate(
                    None,
                    "link %s: final residue %d (%d enqueued, %d delivered, "
                    "%d dropped)" % (link, residue, enq, dlv, drp),
                    link=link, enqueued=enq, delivered=dlv, dropped=drp,
                    residue=residue,
                )


#: the checkers ``arm_invariants`` installs by default
DEFAULT_CHECKERS = (
    MonotoneSeqChecker,
    NonceUniquenessChecker,
    CwndSanityChecker,
    FailoverSanityChecker,
    LinkConservationChecker,
)


class InvariantHarness:
    """All armed checkers plus their bus subscriptions."""

    def __init__(self, bus, checkers):
        self.bus = bus
        self.checkers = list(checkers)
        self._subs = [
            bus.subscribe(checker, categories=checker.categories)
            for checker in self.checkers
        ]

    @property
    def violations(self):
        out = []
        for checker in self.checkers:
            out.extend(checker.violations)
        out.sort(key=lambda v: v.time)
        return out

    def finish(self):
        """Run end-of-run checks; returns all violations."""
        for checker in self.checkers:
            checker.finish()
        return self.violations

    def assert_clean(self):
        """Finish and raise :class:`InvariantViolationError` if any
        checker recorded a violation."""
        violations = self.finish()
        if violations:
            raise InvariantViolationError(violations)

    def disarm(self):
        for sub in self._subs:
            self.bus.unsubscribe(sub)
        self._subs = []


def arm_invariants(sim, checkers=None, strict=False):
    """Arm invariant checkers on a simulation with one call.

    Parameters
    ----------
    sim:
        The :class:`~repro.net.simulator.Simulator` (its ``bus`` is
        subscribed).
    checkers:
        Iterable of checker *classes* (default: all of
        :data:`DEFAULT_CHECKERS`) or ready-made instances.
    strict:
        Raise on the first violation instead of collecting.

    Returns an :class:`InvariantHarness`.
    """
    instances = []
    for checker in (checkers if checkers is not None else DEFAULT_CHECKERS):
        if isinstance(checker, InvariantChecker):
            instances.append(checker)
        else:
            instances.append(checker(strict=strict))
    for checker in instances:
        checker.sim = sim
    return InvariantHarness(sim.bus, instances)
