"""Sans-I/O TCPLS protocol engine.

Everything in this package operates purely on *inputs* (bytes
received, connection writable, connection failed/closed, timer fired)
and produces *effects* through the narrow :class:`Transport` /
:class:`Driver` interfaces of :mod:`repro.core.engine.interfaces` --
there are **no** imports of :mod:`repro.net` or :mod:`repro.tcp`
anywhere under ``repro.core.engine`` (a lint test enforces this).  A
driver's clock is a :class:`repro.net.Simulator` all the same: the
engine only calls its ``now`` and ``schedule``.

Drivers (:mod:`repro.core.drivers`) bind the engine to an environment:
the discrete-event simulator, real kernel TCP sockets, or the replay
harness's I/O-free stub.
"""

from repro.core.engine.interfaces import Driver, Transport
from repro.core.engine.replay import InputLog
from repro.core.engine.connection import ConnectionState
from repro.core.engine.session import TcplsEngine
from repro.core.engine.client import TcplsClientEngine
from repro.core.engine.server import TcplsServerEngine, TcplsServerSessionEngine

__all__ = [
    "ConnectionState",
    "Driver",
    "InputLog",
    "TcplsClientEngine",
    "TcplsEngine",
    "TcplsServerEngine",
    "TcplsServerSessionEngine",
    "Transport",
]
