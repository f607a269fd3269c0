"""One event vocabulary from the engines to whoever listens.

picotcpls reports to its application through one ``tcpls_event_t``
delivered to one handler.  Here every moment the engines report -- a
session became ready, a stream delivered data, a connection failed --
is one :class:`SessionEvent` member, and every listener of that moment
is a handler in the emitting engine's table for it.

Library code (the server engine, the qlog tracer, the Fig. 5 facade)
*subscribes* (:meth:`EventSource.subscribe`).  The application
keeps one slot per event, ``on_<event>``: assigning it replaces the
application's handler and nothing else, so neither side can displace
the other.  An emission calls the subscribed handlers in subscription
order, then the slot.

An event's handlers sit in a tuple that is replaced on every change,
never mutated (as the bus's subscriber snapshot), so an emission runs
the handlers that were registered when it began.  Per-record and
per-ACK sites iterate that tuple inline instead of calling
:meth:`EventSource.emit`: with nothing registered they cost no call.
"""

from enum import IntEnum


class SessionEvent(IntEnum):
    """What the engines report; the comment is each handler's arguments.

    The first thirteen come from a session
    (:class:`~repro.core.engine.session.TcplsEngine`), the last two
    from the listener
    (:class:`~repro.core.engine.server.TcplsServerEngine`).  An
    ``IntEnum``, so a member indexes the handler table as a plain int.
    """

    READY = 0             # (session)
    STREAM_DATA = 1       # (stream)
    GROUP_DATA = 2        # (group)
    STREAM_OPEN = 3       # (stream)
    CONN_ESTABLISHED = 4  # (conn)
    CONN_FAILED = 5       # (conn, reason)
    FAILOVER = 6          # (failed_conn, target_conn)
    JOIN = 7              # (conn)
    PONG = 8              # (conn, payload)
    EBPF_ATTACHED = 9     # (conn, program_id)
    WRITABLE = 10         # (session)
    TCP_OPTION = 11       # (conn, kind, data)
    DRAIN = 12            # (session)
    SESSION = 13          # (session)
    ABORTED = 14          # (conn)


_COUNT = len(SessionEvent)


class EventSource:
    """One engine's handler table: :meth:`subscribe`, :meth:`emit`, and
    the application slots its class declares with :func:`slot`."""

    def __init__(self):
        #: per event, the handlers an emission calls, in call order
        #: (the application's slot, when set, is the last one)
        self._handlers = [()] * _COUNT
        #: per event, the application's slot (``None`` while unset)
        self._slots = [None] * _COUNT

    def subscribe(self, event, fn):
        """Call ``fn`` on every ``event``: after the handlers subscribed
        before it, before the application's slot."""
        handlers = self._handlers[event]
        at = len(handlers) - (self._slots[event] is not None)
        self._handlers[event] = handlers[:at] + (fn,) + handlers[at:]

    def emit(self, event, *args):
        """Call every handler of ``event`` with ``args``."""
        for fn in self._handlers[event]:
            fn(*args)


def slot(event):
    """The application's ``on_<event>`` attribute: reads its handler,
    and assigning replaces it (``None`` clears it)."""

    def assign(self, fn):
        handlers = self._handlers[event]
        if self._slots[event] is not None:
            handlers = handlers[:-1]
        self._slots[event] = fn
        self._handlers[event] = handlers if fn is None else handlers + (fn,)

    return property(lambda self: self._slots[event], assign,
                    doc="The application's %s handler." % event.name)
