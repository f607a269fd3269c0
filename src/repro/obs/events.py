"""Typed events for the observability bus.

An :class:`Event` is one timestamped, categorised occurrence somewhere
in the stack.  The category names the *layer* that emitted it (fixed
vocabulary below); the event name says *what* happened; ``data`` is a
flat dict of primitives so every event serialises straight into qlog.

Scoping conventions (used by subscription filters and checkers):

- session-level events carry ``data["session"]`` (a per-simulation
  session ordinal);
- connection-level events carry ``data["conn"]`` and, where a TCPLS
  session is involved, the session id too;
- stream-level events carry ``data["stream"]``;
- link events carry ``data["link"]`` (the link's stable obs name).
"""

#: TCP connection state machine: state transitions, RTO, fast
#: retransmit, recovery, cwnd/ssthresh updates.
CAT_TCP = "tcp"
#: TLS/TCPLS record layer: records sealed/opened/rejected, traffic-key
#: installation.
CAT_TLS = "tls"
#: TCPLS session lifecycle: ready, connections, streams, joins.
CAT_SESSION = "session"
#: Failover engine: failover decisions, pending failovers, replay.
CAT_RECOVERY = "recovery"
#: Links: packet enqueue, delivery, drops (with reason).
CAT_LINK = "link"
#: Coupled-group record scheduler decisions.
CAT_SCHEDULER = "scheduler"
#: Performance counters: per-run seal/open byte totals, event-loop heap
#: compactions (emitted by the simulator and session hot paths).
CAT_PERF = "perf"
#: Serving (repro.core.engine.server): live-transport and session
#: gauges, accept/attach/teardown accounting, backpressure pause/resume.
CAT_MUX = "mux"
#: Web-workload layer (repro.workload): page-object lifecycle
#: (ready/start/done), pool assignment decisions, page-load-time.
CAT_WORKLOAD = "workload"

ALL_CATEGORIES = (CAT_TCP, CAT_TLS, CAT_SESSION, CAT_RECOVERY, CAT_LINK,
                  CAT_SCHEDULER, CAT_PERF, CAT_MUX, CAT_WORKLOAD)


class Event:
    """One observed occurrence.

    Attributes
    ----------
    time:
        Simulated time in seconds at emission.
    category:
        One of :data:`ALL_CATEGORIES`.
    name:
        The event name (e.g. ``"state_changed"``, ``"failover"``).
    data:
        Flat dict of JSON-serialisable details.
    """

    __slots__ = ("time", "category", "name", "data")

    def __init__(self, time, category, name, data):
        self.time = time
        self.category = category
        self.name = name
        self.data = data

    def to_dict(self):
        """qlog-shaped dict (time in milliseconds, like QVIS expects)."""
        return {
            "time": round(self.time * 1000.0, 6),
            "category": self.category,
            "event": self.name,
            "data": dict(self.data),
        }

    def __repr__(self):
        return "Event(%.6f, %s:%s, %r)" % (
            self.time, self.category, self.name, self.data
        )
