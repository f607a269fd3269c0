"""Sans-I/O TCPLS protocol engine.

Everything in this package operates purely on *inputs* (bytes
received, connection writable, connection failed/closed, timer fired)
and produces *effects* through the narrow :class:`Transport` /
:class:`Clock` interfaces of :mod:`repro.core.engine.interfaces` --
there are **no** imports of :mod:`repro.net` or :mod:`repro.tcp`
anywhere under ``repro.core.engine`` (a lint test enforces this).

Drivers bind the engine to an environment:

- :class:`repro.core.drivers.sim.SimDriver` runs it inside the
  discrete-event simulator (the original, bit-identical code path);
- :class:`repro.core.drivers.sockets.SocketDriver` runs the *same*
  engine over real kernel TCP sockets via :mod:`selectors`.
"""

from repro.core.engine.interfaces import Clock, Driver, Transport
from repro.core.engine.replay import (
    InputLog,
    ManualClock,
    ReplayTransport,
    StubDriver,
    bootstrap_ready_session,
)
from repro.core.engine.connection import ConnectionState
from repro.core.engine.session import TcplsEngine
from repro.core.engine.client import TcplsClientEngine
from repro.core.engine.server import TcplsServerEngine, TcplsServerSessionEngine

__all__ = [
    "Clock",
    "ConnectionState",
    "Driver",
    "InputLog",
    "ManualClock",
    "ReplayTransport",
    "StubDriver",
    "TcplsClientEngine",
    "TcplsEngine",
    "TcplsServerEngine",
    "TcplsServerSessionEngine",
    "Transport",
    "bootstrap_ready_session",
]
