"""Discrete-event network simulator substrate.

This package provides the emulated network that replaces the paper's
Mininet testbed: an event loop, links with bandwidth/latency/drop-tail
queues, multihomed hosts joined by disjoint paths, fault models (every
outage is a :class:`LinkFlap`) and programmable middleboxes.

The simulator is fully deterministic: events scheduled at equal times
fire in scheduling order, and all randomness flows through a seeded
``random.Random`` owned by the :class:`Simulator`.
"""

from repro.net.address import Endpoint, IPAddress
from repro.net.link import Link, duplex_link
from repro.net.host import Host, Interface
from repro.net.packet import Packet
from repro.net.simulator import Simulator
from repro.net.middlebox import (
    Middlebox,
    NAT,
    OptionStrippingFirewall,
    RstInjector,
    Resegmenter,
    StatefulFirewall,
)
from repro.net.faults import (
    BitCorruption,
    Fault,
    GilbertElliott,
    LatencySpike,
    LinkFlap,
)
from repro.net.scenario import Scenario
from repro.net.fluid import (
    FluidCohort,
    FluidEngine,
    max_min_shares,
)
from repro.net.topology import (
    DumbbellTopology,
    MultipathTopology,
    build_dumbbell,
    build_faulty_multipath,
    build_multipath,
)

__all__ = [
    "BitCorruption",
    "DumbbellTopology",
    "Endpoint",
    "Fault",
    "FluidCohort",
    "FluidEngine",
    "GilbertElliott",
    "Host",
    "IPAddress",
    "Interface",
    "LatencySpike",
    "Link",
    "LinkFlap",
    "Middlebox",
    "MultipathTopology",
    "NAT",
    "OptionStrippingFirewall",
    "Packet",
    "Resegmenter",
    "RstInjector",
    "Scenario",
    "Simulator",
    "StatefulFirewall",
    "build_dumbbell",
    "build_faulty_multipath",
    "build_multipath",
    "duplex_link",
    "max_min_shares",
]
