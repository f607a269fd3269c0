"""Typed TCPLS exception hierarchy.

Every error the session layer raises deliberately derives from
:class:`TcplsError`, so applications can catch one base class instead
of fishing for bare ``RuntimeError`` strings.  :class:`TcplsError`
itself subclasses :class:`RuntimeError` for backwards compatibility
with code (and tests) written against the earlier ad-hoc raises.
"""


class TcplsError(RuntimeError):
    """Base class for every TCPLS session-layer error."""


class SessionNotReadyError(TcplsError):
    """An operation requires a completed handshake (``session.ready``)."""

    def __init__(self, message="TCPLS session not ready"):
        super().__init__(message)


class SessionStateError(TcplsError):
    """The session is in the wrong state for the requested operation
    (e.g. opening a second primary connection)."""


class JoinError(TcplsError):
    """A join cannot be attempted: the session fell back to plain TLS
    or the cookie/token budget is exhausted."""


class StreamClosedError(TcplsError):
    """Data was queued on a stream or group that is already closed."""


class TcplsProtocolError(TcplsError):
    """An authenticated record is malformed: a field is truncated, a
    count overruns its payload, or a value is out of range.  The
    connection that carried it fails with reason ``"protocol"``."""


class DriverError(TcplsError):
    """A transport driver failed (socket error, event-loop timeout, or
    an operation the driver does not support)."""


__all__ = [
    "DriverError",
    "JoinError",
    "SessionNotReadyError",
    "SessionStateError",
    "StreamClosedError",
    "TcplsError",
    "TcplsProtocolError",
]
