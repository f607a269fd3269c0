"""Drivers binding the sans-I/O TCPLS engine to an environment.

- :class:`~repro.core.drivers.sim.SimDriver`: the discrete-event
  simulator (:mod:`repro.net` + :mod:`repro.tcp`), used by the paper's
  reproduced experiments;
- :class:`~repro.core.drivers.sockets.SocketDriver`: real kernel TCP
  sockets via :mod:`selectors`, so the same engine runs over OS
  loopback or a testbed.
"""

from repro.core.drivers.multi import (
    ConnectionTable,
    MemoryBudget,
    MultiSessionServer,
)
from repro.core.drivers.sim import (
    SimClock,
    SimDriver,
    TcplsClient,
    TcplsServer,
)
from repro.core.drivers.sockets import (
    SocketClock,
    SocketDriver,
    SocketTransport,
)

__all__ = [
    "ConnectionTable",
    "MemoryBudget",
    "MultiSessionServer",
    "SimClock",
    "SimDriver",
    "SocketClock",
    "SocketDriver",
    "SocketTransport",
    "TcplsClient",
    "TcplsServer",
]
