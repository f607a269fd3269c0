"""Drivers binding the sans-I/O TCPLS engine to an environment.

Each driver's ``clock`` is a :class:`repro.net.Simulator`, and its
``bus`` and ``rng`` are that simulator's, so every timer the engine
arms sits on one heap:

- :class:`~repro.core.drivers.sim.SimDriver`: the discrete-event
  simulator (:mod:`repro.net` + :mod:`repro.tcp`), used by the paper's
  reproduced experiments; its clock is the simulation's own;
- :class:`~repro.core.drivers.sockets.SocketDriver`: real kernel TCP
  sockets via :mod:`selectors`, so the same engine runs over OS
  loopback or a testbed; each loop step runs its clock to monotonic
  wall time;
- :class:`~repro.core.drivers.stub.StubDriver`: no I/O at all, for the
  replay harness and unit tests; its clock moves only when they run it.
"""

from repro.core.drivers.sim import (
    SimDriver,
    TcplsClient,
    TcplsServer,
)
from repro.core.drivers.sockets import (
    SocketDriver,
    SocketTransport,
)
from repro.core.drivers.stub import (
    ReplayTransport,
    StubDriver,
    bootstrap_ready_session,
)

__all__ = [
    "ReplayTransport",
    "SimDriver",
    "SocketDriver",
    "SocketTransport",
    "StubDriver",
    "TcplsClient",
    "TcplsServer",
    "bootstrap_ready_session",
]
