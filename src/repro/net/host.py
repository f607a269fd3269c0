"""Multihomed end hosts.

A :class:`Host` owns one or more :class:`Interface` objects (e.g. a
Wi-Fi IPv4 interface and an LTE IPv6 interface), a routing table, and a
registry of transport stacks (TCP, UDP) that packets are demultiplexed
to.  This mirrors what the TCPLS prototype sees from the OS: several
local addresses, each reaching the peer over a disjoint path.
"""


class Interface:
    """A network interface: one address, one attached transmit link."""

    def __init__(self, name, address, tx_link=None):
        self.name = name
        self.address = address
        self.tx_link = tx_link
        self.up = True

    def set_up(self, up):
        """Administratively toggle the interface."""
        self.up = up

    def __repr__(self):
        state = "up" if self.up else "down"
        return "Interface(%s, %s, %s)" % (self.name, self.address, state)


class Host:
    """An end host with interfaces, routes and transport stacks."""

    def __init__(self, sim, name):
        self.sim = sim
        self.name = name
        self.interfaces = []
        self._routes = {}
        self._stacks = {}
        self.rx_packets = 0
        self.tx_packets = 0
        #: memoised route() results keyed by (dst, src); address
        #: comparisons go through the ipaddress module and dominate the
        #: per-packet send cost otherwise.  Invalidated by every
        #: topology mutation (interfaces and addresses are immutable
        #: once attached, and up/down is checked after routing).
        self._route_cache = {}
        #: local addresses, for the per-packet "is it for us" test;
        #: kept with the interface list it mirrors.
        self._local_addresses = set()

    # -- configuration -------------------------------------------------

    def add_interface(self, name, address, tx_link=None):
        """Attach a new interface and return it."""
        iface = Interface(name, address, tx_link)
        self.interfaces.append(iface)
        self._local_addresses.add(address)
        self._route_cache.clear()
        return iface

    def interface_for_address(self, address):
        """Find the interface owning a local address, or None."""
        for iface in self.interfaces:
            if iface.address == address:
                return iface
        return None

    def addresses(self, family=None):
        """All local addresses, optionally filtered by family."""
        return [
            i.address
            for i in self.interfaces
            if family is None or i.address.family == family
        ]

    def add_route(self, dst_address, interface):
        """Route an exact destination address through an interface."""
        self._routes[dst_address] = interface
        self._route_cache.clear()

    def register_stack(self, proto, stack):
        """Register the transport stack handling ``proto`` packets."""
        self._stacks[proto] = stack

    def stack(self, proto):
        return self._stacks.get(proto)

    # -- data path -----------------------------------------------------

    def route(self, dst_address, src_address=None):
        """Pick the egress interface for a destination.

        Source-address routing takes precedence: a transport that bound
        a specific local address (how TCPLS pins connections to paths)
        always leaves through the owning interface.
        """
        cache = self._route_cache
        key = (dst_address, src_address)
        try:
            return cache[key]
        except KeyError:
            pass
        iface = None
        if src_address is not None:
            iface = self.interface_for_address(src_address)
        if iface is None:
            iface = self._routes.get(dst_address)
        cache[key] = iface
        return iface

    def send(self, packet):
        """Transmit a packet out of the interface routing selects.

        Returns True if the packet was handed to a link, False if no
        usable route exists (down interface or missing route) -- the
        caller sees that as a silent blackhole, exactly like an OS
        dropping on a dead interface.
        """
        try:
            iface = self._route_cache[packet.dst, packet.src]
        except KeyError:
            iface = self.route(packet.dst, packet.src)
        if iface is None or not iface.up or iface.tx_link is None:
            return False
        self.tx_packets += 1
        iface.tx_link.send(packet)
        return True

    def receive(self, packet):
        """Link delivery entry point: a packet for a local address goes
        to its protocol's stack (``TcpStack.receive``); hosts do not
        forward."""
        self.rx_packets += 1
        if packet.dst not in self._local_addresses:
            return
        stack = self._stacks.get(packet.proto)
        if stack is not None:
            stack.receive(packet)

    def __repr__(self):
        return "Host(%s, %d ifaces)" % (self.name, len(self.interfaces))
