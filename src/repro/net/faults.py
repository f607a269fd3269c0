"""Deterministic fault injection for links.

Faults model the *network* misbehaving — link flaps (every outage,
one-way or both ways, is a :class:`LinkFlap`), bursty (Gilbert–Elliott)
loss, bit corruption, latency spikes — while middleboxes
(:mod:`repro.net.middlebox`) model *equipment* that parses and
rewrites packets (NATs, firewalls, resegmenters, RST injectors).

Faults attach to a :class:`~repro.net.link.Link` via
:meth:`~repro.net.link.Link.add_fault` and are consulted twice: at
``send()`` (before the drop-tail queue, so a faulted packet never
occupies queue space) and again at delivery (so an outage also kills
packets that were already in flight).  Every fault decision is drawn
either from scheduled time windows or from a dedicated
``random.Random`` seeded from the simulator RNG at attach time, so
identical seeds produce bit-for-bit identical drop sequences.

The verdict protocol of :meth:`Fault.filter` /
:meth:`Fault.at_delivery`:

* ``None``      — pass the packet untouched,
* :data:`DROP`  — drop it (the link books the drop under the fault's
  :attr:`~Fault.kind` in ``LinkStats.drop_reasons``),
* a ``float``   — extra one-way delay in seconds (latency faults).

Mutating faults (bit corruption in ``deliver`` mode) rewrite
``packet.payload`` in place and return ``None``.

Scheduling fault *activity* over time is the job of
:mod:`repro.net.scenario`; this module only defines the per-packet
machinery.
"""

import random

#: Sentinel verdict: the fault consumed (dropped) the packet.
DROP = object()


class Fault:
    """Base class for per-packet fault models.

    Parameters
    ----------
    name:
        Optional label used in reprs; defaults to :attr:`kind`.
    start, end:
        Activity window in simulated seconds.  Outside ``[start, end)``
        the fault passes every packet.  ``end=None`` means forever.
    """

    #: Short identifier used as the drop-reason key in ``LinkStats``.
    kind = "fault"

    def __init__(self, name="", start=0.0, end=None):
        self.name = name or self.kind
        self.start = start
        self.end = end
        self.link = None
        self.processed = 0
        self.dropped = 0

    def attach(self, link):
        """Called by :meth:`Link.add_fault`; binds the fault to a link."""
        self.link = link

    def window_active(self, now):
        """Whether ``now`` falls inside the fault's activity window."""
        return now >= self.start and (self.end is None or now < self.end)

    def filter(self, packet, now):
        """Send-time verdict: ``None`` / :data:`DROP` / extra delay."""
        return None

    def at_delivery(self, packet, now):
        """Delivery-time verdict for in-flight packets.

        Only outage-style faults override this; stochastic faults must
        decide once, at send time, or the drop sequence would depend on
        queueing delays.
        """
        return None

    def _seeded_rng(self, seed):
        """A private generator: explicit seed, or derived from the
        simulator RNG at attach time (still fully deterministic)."""
        if seed is not None:
            return random.Random(seed)
        if self.link is None:
            raise RuntimeError(
                "%s needs seed= when used before attach()" % type(self).__name__
            )
        return random.Random(self.link.sim.rng.getrandbits(32))

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.name)


class LinkFlap(Fault):
    """Hard outage: drops 100%% of packets while *down*, 0%% otherwise.

    The link is down when :attr:`forced_down` is set (manual control,
    used by rotating-outage schedules) or when the current time falls
    inside any of the configured ``(start, end)`` windows (``end=None``
    = down forever).  Because a :class:`~repro.net.link.Link` is
    unidirectional, a flap on a single link *is* a one-way blackhole;
    flap both links of a path for a symmetric outage.

    In-flight packets are also dropped at delivery time while down, so
    a packet admitted just before the outage dies with the rest.
    """

    kind = "flap"

    def __init__(self, windows=(), name=""):
        super().__init__(name)
        self.windows = [tuple(w) for w in windows]
        self.forced_down = False

    def add_window(self, start, end=None):
        """Schedule an outage during ``[start, end)``; returns self."""
        self.windows.append((start, end))
        return self

    def flap_every(self, period, down_for, start=0.0, until=None):
        """Periodic flapping: down for ``down_for`` s every ``period`` s,
        from ``start`` until ``until`` (required — the window list is
        materialised up front to stay inspectable)."""
        if until is None:
            raise ValueError("flap_every requires until=")
        if down_for >= period:
            raise ValueError("down_for must be shorter than period")
        t = start
        while t < until:
            self.windows.append((t, min(t + down_for, until)))
            t += period
        return self

    def force(self, down):
        """Manually hold the link down (or release it)."""
        self.forced_down = down
        if self.link is not None:
            self.link._fluid_touch()

    def down_at(self, now):
        if self.forced_down:
            return True
        for s, e in self.windows:
            if now >= s and (e is None or now < e):
                return True
        return False

    def filter(self, packet, now):
        self.processed += 1
        if self.down_at(now):
            self.dropped += 1
            return DROP
        return None

    def at_delivery(self, packet, now):
        if self.down_at(now):
            self.dropped += 1
            return DROP
        return None


class GilbertElliott(Fault):
    """Two-state bursty loss (the Gilbert–Elliott channel).

    The chain advances once per packet while the activity window is
    open: in the *good* state packets drop with ``loss_good``, in the
    *bad* state with ``loss_bad``; after emitting the verdict the state
    flips good→bad with probability ``p_gb`` and bad→good with
    ``p_bg``.  Mean bad-state burst length is ``1/p_bg`` packets and
    the stationary bad-state share is ``p_gb / (p_gb + p_bg)``.

    All draws come from a private RNG (``seed=`` or derived from the
    simulator RNG at attach), so a fixed seed yields an identical drop
    sequence regardless of what else the simulation randomises.
    """

    kind = "burst-loss"

    GOOD, BAD = "good", "bad"

    def __init__(self, p_gb, p_bg, loss_good=0.0, loss_bad=1.0,
                 seed=None, start=0.0, end=None, name=""):
        super().__init__(name, start=start, end=end)
        if not (0.0 <= p_gb <= 1.0 and 0.0 < p_bg <= 1.0):
            raise ValueError("transition probabilities must be in (0, 1]")
        self.p_gb = p_gb
        self.p_bg = p_bg
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self._seed = seed
        self.rng = None
        self.state = self.GOOD
        self.bursts = 0           # completed bad-state runs
        self.burst_lengths = []   # packets spent in each completed run
        self._run = 0

    def attach(self, link):
        super().attach(link)
        if self.rng is None:
            self.rng = self._seeded_rng(self._seed)

    def filter(self, packet, now):
        if not self.window_active(now):
            return None
        if self.rng is None:                      # direct (unit-test) use
            self.rng = self._seeded_rng(self._seed)
        self.processed += 1
        loss = self.loss_bad if self.state == self.BAD else self.loss_good
        drop = loss > 0.0 and self.rng.random() < loss
        if self.state == self.BAD:
            self._run += 1
            if self.rng.random() < self.p_bg:
                self.state = self.GOOD
                self.bursts += 1
                self.burst_lengths.append(self._run)
                self._run = 0
        else:
            if self.rng.random() < self.p_gb:
                self.state = self.BAD
        if drop:
            self.dropped += 1
            return DROP
        return None

    def mean_burst_length(self):
        """Average packets per completed bad-state run."""
        if not self.burst_lengths:
            return 0.0
        return sum(self.burst_lengths) / len(self.burst_lengths)


class BitCorruption(Fault):
    """On-path bit corruption at a per-packet ``rate``.

    ``mode="drop"`` (default) models an end host whose checksum catches
    the damage: the packet is discarded, which from the transport's view
    is loss with a distinct counter.  ``mode="deliver"`` actually flips
    one random bit of the transport payload and delivers the packet —
    the middlebox-interference case of Nowlan et al., useful for
    asserting that authenticated records detect the damage.  Packets
    without a mutable payload (pure ACKs, non-TCP PDUs) are dropped in
    either mode, standing in for header corruption.
    """

    kind = "corruption"

    def __init__(self, rate, mode="drop", seed=None, start=0.0, end=None,
                 name=""):
        super().__init__(name, start=start, end=end)
        if mode not in ("drop", "deliver"):
            raise ValueError("mode must be 'drop' or 'deliver'")
        self.rate = rate
        self.mode = mode
        self._seed = seed
        self.rng = None
        self.corrupted = 0

    def attach(self, link):
        super().attach(link)
        if self.rng is None:
            self.rng = self._seeded_rng(self._seed)

    def filter(self, packet, now):
        if not self.window_active(now):
            return None
        if self.rng is None:
            self.rng = self._seeded_rng(self._seed)
        self.processed += 1
        if self.rate <= 0.0 or self.rng.random() >= self.rate:
            return None
        self.corrupted += 1
        seg = packet.payload
        data = getattr(seg, "payload", b"")
        if self.mode == "drop" or not data or not hasattr(seg, "replace"):
            self.dropped += 1
            return DROP
        data = bytes(data)  # payloads may be zero-copy memoryviews
        i = self.rng.randrange(len(data))
        flipped = data[i] ^ (1 << self.rng.randrange(8))
        packet.payload = seg.replace(
            payload=data[:i] + bytes((flipped,)) + data[i + 1:])
        return None


class LatencySpike(Fault):
    """Adds ``extra`` seconds of one-way delay while active.

    Models bufferbloat episodes and route changes.  On rate-limited
    links the FIFO clamp in :class:`~repro.net.link.Link` keeps
    delivery order intact even when the spike window closes; on
    infinite-rate links a closing spike can reorder, just like jitter.
    ``extra`` may be a callable ``extra(rng) -> seconds`` for randomised
    spikes drawn from the fault's private RNG.
    """

    kind = "latency"

    def __init__(self, extra, start=0.0, end=None, seed=None, name=""):
        super().__init__(name, start=start, end=end)
        self.extra = extra
        self._seed = seed
        self.rng = None
        self.delayed = 0

    def attach(self, link):
        super().attach(link)
        if self.rng is None and callable(self.extra):
            self.rng = self._seeded_rng(self._seed)

    def filter(self, packet, now):
        if not self.window_active(now):
            return None
        self.processed += 1
        self.delayed += 1
        if callable(self.extra):
            if self.rng is None:
                self.rng = self._seeded_rng(self._seed)
            return float(self.extra(self.rng))
        return float(self.extra)
