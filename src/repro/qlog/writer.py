"""qlog trace writer.

:class:`QlogTracer` is a qlog-format *sink* for the observability bus
(:mod:`repro.obs`): subscribe it to ``sim.bus`` and every event it
receives becomes one qlog event in the output document.  The manual
:meth:`QlogTracer.log` entry point remains for ad-hoc events, and
:func:`attach_session_tracer` subscribes a tracer to one session's
lifecycle events (:class:`~repro.core.engine.events.SessionEvent`).
"""

import json

from repro.core.engine.events import SessionEvent


class QlogTracer:
    """Collects events and serialises them qlog-style.

    Usable three ways:

    - as a bus sink: ``sim.bus.subscribe(tracer, categories=...)``
      (it implements the ``on_event`` sink protocol);
    - via :func:`attach_session_tracer` for one session's lifecycle
      (and optionally its record stream);
    - manually, through :meth:`log`.
    """

    def __init__(self, sim, title="tcpls-session", vantage_point="client"):
        self.sim = sim
        self.title = title
        self.vantage_point = vantage_point
        self.events = []

    def log(self, category, event, data=None):
        """Record one event at the current simulated time."""
        self.events.append({
            "time": round(self.sim.now * 1000.0, 6),  # qlog uses ms
            "category": category,
            "event": event,
            "data": data or {},
        })

    def on_event(self, event):
        """Bus-sink protocol: append one :class:`repro.obs.Event`."""
        self.events.append(event.to_dict())

    def to_dict(self):
        return {
            "qlog_version": "0.4",
            "title": self.title,
            "traces": [{
                "vantage_point": {"type": self.vantage_point},
                "events": self.events,
            }],
        }

    def dumps(self, indent=None):
        return json.dumps(self.to_dict(), indent=indent)

    def dump(self, path, indent=2):
        with open(path, "w") as fh:
            fh.write(self.dumps(indent=indent))


#: the session events a session tracer logs:
#: ``(event, qlog category, qlog event, handler args -> data)``
LIFECYCLE = (
    (SessionEvent.READY, "connectivity", "session_ready", lambda s: {}),
    (SessionEvent.CONN_ESTABLISHED, "connectivity", "connection_established",
     lambda c: {"conn": c.index, "local": str(c.tcp.local),
                "remote": str(c.tcp.remote)}),
    (SessionEvent.CONN_FAILED, "connectivity", "connection_failed",
     lambda c, r: {"conn": c.index, "reason": r}),
    (SessionEvent.FAILOVER, "recovery", "failover",
     lambda o, n: {"from": o.index, "to": n.index}),
    (SessionEvent.JOIN, "connectivity", "connection_joined",
     lambda c: {"conn": c.index}),
    (SessionEvent.EBPF_ATTACHED, "extensibility", "ebpf_cc_attached",
     lambda c, p: {"conn": c.index, "program": p}),
)


def attach_session_tracer(session, tracer, trace_records=False):
    """Subscribe a tracer to a TCPLS session's :data:`LIFECYCLE` events
    (ready / established / failed / failover / join / eBPF).

    The tracer subscribes, so the application's ``on_*`` slots keep
    firing whether they are assigned before or after it.

    ``trace_records=True`` additionally subscribes the tracer to the
    session's ``tls``-category events on the bus — one event per record
    sealed/opened/rejected, sized for short sessions.  With the default
    ``trace_records=False`` no record-level events are captured at all;
    to get them with different scoping (e.g. every session at once),
    subscribe the tracer to the bus yourself::

        sim.bus.subscribe(tracer, categories=("tls",))
    """
    if trace_records:
        session.bus.subscribe(tracer, categories=("tls",),
                              where={"session": session.obs_id})
    for event, category, name, data in LIFECYCLE:
        session.subscribe(event, lambda *args, c=category, n=name, d=data:
                          tracer.log(c, n, d(*args)))
    return tracer
