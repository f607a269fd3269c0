"""Point-to-point links with rate, delay and a drop-tail queue.

A :class:`Link` is unidirectional; :func:`duplex_link` wires a pair.
The model is the classic store-and-forward pipe: packets serialize at
``rate`` bits per second (back-to-back packets queue behind the
transmitter), then propagate for ``delay`` seconds.  The queue is
drop-tail with a byte capacity, which is what gives TCP its loss signal
in the congestion experiments.

Middleboxes (see :mod:`repro.net.middlebox`) are attached to links and
get a chance to drop, mutate, or inject packets between serialization
and delivery.  Faults (see :mod:`repro.net.faults`) are consulted at
send time and again at delivery, and model the network itself
misbehaving: flaps, bursty loss, corruption, latency spikes.

Every packet that dies on a link — administrative down, fault, random
loss, full queue, or middlebox — is booked in
``LinkStats.dropped_packets``/``dropped_bytes`` and itemised by reason
in ``LinkStats.drop_reasons``, so goodput probes and loss accounting
stay truthful no matter which layer killed the packet.
"""

from repro.net import faults as _faults


class LinkStats:
    """Counters exported by every link, used by goodput probes.

    ``drop_reasons`` itemises ``dropped_packets`` by cause: ``"down"``
    (administrative), ``"loss"`` (i.i.d. random loss), ``"queue"``
    (drop-tail overflow), ``"middlebox"``, or a fault's ``kind``
    (``"flap"``, ``"blackhole"``, ``"burst-loss"``, ``"corruption"``).
    """

    __slots__ = ("tx_packets", "tx_bytes", "dropped_packets",
                 "dropped_bytes", "drop_reasons")

    def __init__(self):
        self.tx_packets = 0
        self.tx_bytes = 0
        self.dropped_packets = 0
        self.dropped_bytes = 0
        self.drop_reasons = {}

    def dropped_by(self, reason):
        """Packets dropped for ``reason`` (0 if none were)."""
        return self.drop_reasons.get(reason, 0)


class Link:
    """Unidirectional link.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.net.simulator.Simulator`.
    rate_bps:
        Serialization rate in bits per second (``None`` = infinite).
    delay:
        One-way propagation delay in seconds.
    queue_bytes:
        Drop-tail buffer capacity in bytes (counts queued, not
        in-flight, packets).  Default sized at 2x the bandwidth-delay
        product when a rate is given, else unbounded.
    loss_rate:
        Independent random drop probability applied per packet,
        drawn from the simulator RNG.
    mtu:
        Maximum packet size accepted; larger packets raise, because the
        sending TCP stack is responsible for segmentation.
    """

    def __init__(self, sim, rate_bps=None, delay=0.0, queue_bytes=None,
                 loss_rate=0.0, mtu=1500, name="", jitter=0.0):
        self.sim = sim
        #: stable identifier carried in observability events ("link"
        #: field); the human name when given, else this link's ordinal
        #: in the simulation (named links count too).
        ordinal = sim.bus.next_id("link")
        self.obs_name = name or ("link-%d" % ordinal)
        self.rate_bps = rate_bps
        self.delay = delay
        #: uniform per-packet extra delay (order-preserving).  Zero by
        #: default; competition experiments enable it to break the
        #: drop-tail phase lockout a perfectly deterministic simulator
        #: otherwise exhibits (ns-2 style randomisation).
        self.jitter = jitter
        self._last_arrival = 0.0
        if queue_bytes is None and rate_bps:
            bdp = rate_bps / 8.0 * max(delay * 2, 0.002)
            queue_bytes = max(int(bdp * 2), 16 * mtu)
        self.queue_bytes = queue_bytes
        self.loss_rate = loss_rate
        self.mtu = mtu
        self.name = name
        self.stats = LinkStats()
        self.middleboxes = []
        self.faults = []
        self.up = True
        self._sink = None
        self._queued_bytes = 0
        self._busy_until = 0.0

    def connect(self, sink):
        """Set the receiving side: any callable ``sink(packet)``."""
        self._sink = sink

    def add_middlebox(self, box):
        """Attach an on-path middlebox (processed in attachment order)."""
        self.middleboxes.append(box)
        box.attach(self)

    def add_fault(self, fault):
        """Attach a fault model (see :mod:`repro.net.faults`).

        Faults run in attachment order at ``send()``; outage-style
        faults are re-checked at delivery so they also kill in-flight
        packets.
        """
        self.faults.append(fault)
        fault.attach(self)
        return fault

    def set_up(self, up):
        """Administratively enable/disable the link (interface hotplug)."""
        self.up = up
        self._fluid_touch()

    def _fluid_touch(self):
        """Notify an attached fluid engine of an immediate capacity
        change (administrative up/down, forced flap) so it can re-solve
        shares; a no-op when no engine is attached."""
        engine = self.sim.fluid
        if engine is not None:
            engine.touch()

    def fluid_advance(self, nbytes, npackets):
        """Advance delivery counters in closed form (the fluid engine
        books leapt traffic here; no ``_deliver`` call ever happens)."""
        self.stats.tx_bytes += nbytes
        self.stats.tx_packets += npackets

    def send(self, packet):
        """Entry point for the transmitting node."""
        arrival = self._admit(packet)
        if arrival is not None:
            self.sim.at(arrival, self._deliver, packet)

    def _admit(self, packet):
        """Run send-side checks; returns the delivery time, or None if
        the packet died on admission (already booked as a drop)."""
        size = packet.wire_size()
        if self.sim.bus.subscribed:
            self._observe("enqueue", size)
        if not self.up:
            self._drop(packet, "down")
            return None
        if size > self.mtu + 40:
            # Allow jumbo IP headroom; transports must respect the MTU.
            raise ValueError(
                "packet of %d B exceeds link MTU %d on %s"
                % (size, self.mtu, self.name or "link")
            )
        fault_delay = 0.0
        if self.faults:
            now = self.sim.now
            for fault in self.faults:
                verdict = fault.filter(packet, now)
                if verdict is None:
                    continue
                if verdict is _faults.DROP:
                    self._drop(packet, fault.kind)
                    return None
                fault_delay += verdict
            size = packet.wire_size()  # corruption may have resized it
        if self.loss_rate and self.sim.rng.random() < self.loss_rate:
            self._drop(packet, "loss")
            return None
        now = self.sim.now
        if self.rate_bps is None:
            arrival = now + self.delay + fault_delay
            if self.jitter:
                arrival += self.sim.rng.random() * self.jitter
            return arrival
        busy = self._busy_until
        if busy > now:
            queued = (busy - now) * self.rate_bps / 8.0
        else:
            queued, busy = 0.0, now
        if self.queue_bytes is not None and queued + size > self.queue_bytes:
            self._drop(packet, "queue")
            return None
        self._busy_until = busy = busy + size * 8.0 / self.rate_bps
        arrival = busy + self.delay + fault_delay
        if self.jitter:
            arrival += self.sim.rng.random() * self.jitter
        # Jitter must not reorder the FIFO pipe; schedule at an absolute
        # time (re-deriving it from a delay loses ULPs and can land one
        # tick before the previous packet).
        if arrival < self._last_arrival:
            arrival = self._last_arrival
        self._last_arrival = arrival
        return arrival

    def _drop(self, packet, reason="loss"):
        size = packet.wire_size()
        self.stats.dropped_packets += 1
        self.stats.dropped_bytes += size
        reasons = self.stats.drop_reasons
        reasons[reason] = reasons.get(reason, 0) + 1
        if self.sim.bus.subscribed:
            self._observe("drop", size, reason)

    def _observe(self, name, size, reason=None):
        """Emit one link event (callers skip it while the bus has no
        subscriber at all)."""
        bus = self.sim.bus
        if not bus.wants("link"):
            return
        data = {"link": self.obs_name, "bytes": size}
        if reason is not None:
            data["reason"] = reason
        bus.emit("link", name, data)

    def _deliver(self, packet):
        """The simulator's delivery callback: outage re-check, on-path
        boxes, delivery accounting, then the sink (``Host.receive``)."""
        if not self.up:
            self._drop(packet, "down")
            return
        if self.faults:
            now = self.sim.now
            for fault in self.faults:
                if fault.at_delivery(packet, now) is _faults.DROP:
                    self._drop(packet, fault.kind)
                    return
        for box in self.middleboxes:
            processed = box.process(packet)
            if processed is None:
                self._drop(packet, "middlebox")
                return
            packet = processed
        # The size _admit computed, unless a box swapped the payload.
        size = packet.wire_size()
        self.stats.tx_packets += 1
        self.stats.tx_bytes += size
        if self.sim.bus.subscribed:
            self._observe("deliver", size)
        if self._sink is not None:
            self._sink(packet)

    def inject(self, packet):
        """Deliver a packet created on-path (used by RST-injecting boxes)."""
        if self._sink is not None:
            self.sim.schedule(0.0, self._sink, packet)


def duplex_link(sim, a, b, rate_bps=None, delay=0.0, queue_bytes=None,
                loss_rate=0.0, mtu=1500, name=""):
    """Create a bidirectional pipe between nodes ``a`` and ``b``.

    Each node must expose ``receive(packet)``.  Returns the
    ``(a_to_b, b_to_a)`` pair of :class:`Link` objects.
    """
    fwd = Link(sim, rate_bps, delay, queue_bytes, loss_rate, mtu,
               name=name + ">" if name else "")
    rev = Link(sim, rate_bps, delay, queue_bytes, loss_rate, mtu,
               name=name + "<" if name else "")
    fwd.connect(b.receive)
    rev.connect(a.receive)
    return fwd, rev
