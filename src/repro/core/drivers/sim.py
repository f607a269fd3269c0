"""Simulator driver: runs the engine inside the discrete-event world.

The transports handed to the engine are the simulator's own
:class:`repro.tcp.connection.TcpConnection` objects (they satisfy the
:class:`~repro.core.engine.interfaces.Transport` contract directly), so
this driver adds no per-byte indirection; its clock is the simulator
itself.

:func:`TcplsClient` and :func:`TcplsServer` build the engines bound to
a simulated host's TCP stack -- the constructors the experiments, the
examples and the tests use.
"""

from repro.core.engine.client import TcplsClientEngine
from repro.core.engine.interfaces import Driver
from repro.core.engine.server import TcplsServerEngine
from repro.net.address import Endpoint


class SimDriver(Driver):
    """Bind engines to one host's :class:`repro.tcp.stack.TcpStack`."""

    def __init__(self, sim, stack):
        self.clock = sim
        self.stack = stack
        self.bus = sim.bus
        self.rng = sim.rng

    @property
    def name(self):
        return self.stack.host.name

    @property
    def tfo_enabled(self):
        return self.stack.tfo_enabled

    def connect(self, local_addr, remote, cc=None, tfo_data=b""):
        return self.stack.connect(local_addr, remote, cc=cc,
                                  tfo_data=tfo_data)

    def listen(self, port, on_accept, cc=None):
        return self.stack.listen(port, on_accept, cc=cc)

    def endpoint(self, address, port):
        return Endpoint(address, port)

    def tfo_cookie_for(self, server_addr):
        return self.stack.tfo_cookie_for(server_addr)

    def usable_local_addresses(self):
        addresses = []
        for address in self.stack.host.addresses():
            iface = self.stack.host.interface_for_address(address)
            if iface is not None and iface.up:
                addresses.append(address)
        return addresses

    def advertised_addresses(self):
        return self.stack.host.addresses()


def TcplsClient(sim, stack, psk, **client_kwargs):
    """A TCPLS client on a simulated host."""
    return TcplsClientEngine(SimDriver(sim, stack), psk, **client_kwargs)


def TcplsServer(sim, stack, port, psk, **server_kwargs):
    """A TCPLS server listening on a simulated host's ``port``."""
    return TcplsServerEngine(SimDriver(sim, stack), port, psk,
                             **server_kwargs)


__all__ = ["SimDriver", "TcplsClient", "TcplsServer"]
