"""Fluid-model fast-forward: cohorts of flows advance analytically.

Per-packet simulation is exact but costs one event per segment; at
100k flows the interpreter, not the model, dominates wall-clock.  This
module models a flow population instead of simulating its packets (in
the style of dt-simulator's ``eventSimulator``): a flow's throughput is
computed *in closed form* — weighted max-min fair shares over the links
it crosses — and simulated time leaps directly to the next **discrete**
event:

* a scheduled fault boundary (flap window opening/closing, a path
  forced down, a link hot-plugged),
* a cohort joining or leaving a link,
* a slow-start exit (one event per RTT while a flow still doubles),
* a bulk-transfer completion.

Between those events no per-packet work happens at all: per-flow
delivered-byte counters, the modelled cwnd, and ``LinkStats`` advance
arithmetically over the leapt interval.  Fluid flows are never TCP
connections and never touch the TCPLS engine: what the model leaves out
(loss, queueing, the failover handshake) is measured against the packet
path in ``tests/net/test_fluid_equivalence.py`` and stated in
DESIGN.md section 8.

The unit of bookkeeping is the :class:`FluidCohort`: ``n`` flows that
share a path, a weight and a start time, and therefore always have
*identical* rates.  Advancing a cohort is O(1) regardless of ``n``
(served-bytes-per-flow accumulates once; completions pop off a
pre-sorted size list), which is what makes 100k-flow populations cost
~one event per flow completion instead of millions of packets.

Shares are weighted max-min (water-filling): each flow's weight
defaults to ``1/rtt``, reproducing TCP's RTT bias, and a cohort in
slow start contributes a rate *cap* of ``cwnd/rtt`` instead of a
greedy demand.  :func:`max_min_shares` is a pure function so the
hypothesis suite can hammer it with random populations and assert
per-link conservation and bottleneck saturation.
"""

EPS = 1e-9

#: phases of a cohort's modelled congestion state
SLOW_START = "slow-start"
STEADY = "steady"
STALLED = "stalled"


def link_capacity_bps(link, now):
    """Fluid-visible capacity of a link at ``now`` in bits/s.

    Zero while the link is administratively down or any attached
    flap-style fault is inside an outage window (or forced down).
    Middleboxes are not consulted: no cohort crosses a blackhole.
    ``rate_bps=None`` means uncapped (``inf``).
    """
    if not link.up:
        return 0.0
    for fault in link.faults:
        down_at = getattr(fault, "down_at", None)
        if down_at is not None and down_at(now):
            return 0.0
    if link.rate_bps is None:
        return float("inf")
    return float(link.rate_bps)


def link_next_change(link, now):
    """Earliest scheduled capacity boundary strictly after ``now``.

    Scans flap-style fault windows (the only *passively* scheduled
    outages: forced flaps and ``set_up`` run as simulator events and
    notify the engine directly via :meth:`FluidEngine.touch`).  Returns
    ``None`` when nothing is scheduled.
    """
    best = None
    for fault in link.faults:
        windows = getattr(fault, "windows", None)
        if windows is None:
            continue
        for start, end in windows:
            for edge in (start, end):
                if edge is not None and edge > now + EPS:
                    if best is None or edge < best:
                        best = edge
    return best


def max_min_shares(entries, capacity_of):
    """Weighted max-min fair (water-filling) rate allocation.

    Parameters
    ----------
    entries:
        List of ``(key, links, n, weight, cap)`` tuples: ``n`` flows of
        ``weight`` each crossing every link in ``links``; ``cap`` is an
        optional per-flow rate ceiling (slow-start demand limit),
        ``None`` = greedy.
    capacity_of:
        ``capacity_of(link) -> bits/s`` (may be ``inf``).

    Returns ``{key: per_flow_rate}`` in the same units as the
    capacities.  The classic progressive-filling invariants hold: no
    link carries more than its capacity, and every flow is limited
    either by its cap or by at least one saturated link.
    """
    residual = {}
    members = {}
    for key, links, n, weight, cap in entries:
        for link in links:
            if link not in residual:
                residual[link] = capacity_of(link)
                members[link] = []
            members[link].append(key)
    info = {key: (links, n, weight, cap)
            for key, links, n, weight, cap in entries}
    rate = {}
    # Insertion-ordered on purpose: keys are cohort objects, and a set
    # would iterate in id() order, making the float accumulation order
    # (and hence the last-ulp of the water level) vary run to run.
    unfrozen = dict.fromkeys(info)

    def freeze(key, per_flow):
        links, n, weight, _cap = info[key]
        rate[key] = per_flow
        unfrozen.pop(key, None)
        for link in links:
            if residual[link] != float("inf"):
                residual[link] = max(residual[link] - n * per_flow, 0.0)

    # Flows crossing a dead link get nothing, immediately.
    for key in list(unfrozen):
        links, _n, _w, _cap = info[key]
        if any(residual[link] <= EPS and residual[link] != float("inf")
               for link in links):
            freeze(key, 0.0)

    while unfrozen:
        # Fill level per saturating link: residual / unfrozen weight.
        level = None
        for link, keys in members.items():
            weight_sum = sum(
                info[k][1] * info[k][2] for k in keys if k in unfrozen)
            if weight_sum <= 0.0 or residual[link] == float("inf"):
                continue
            candidate = residual[link] / weight_sum
            if level is None or candidate < level:
                level = candidate
        # Capped flows that hit their ceiling before the water level.
        capped = [
            (info[k][3] / info[k][2], k) for k in unfrozen
            if info[k][3] is not None
        ]
        capped.sort(key=lambda item: item[0])
        if capped and (level is None or capped[0][0] < level - EPS):
            threshold = capped[0][0]
            for normalized, key in capped:
                if normalized > threshold + EPS:
                    break
                freeze(key, info[key][3])
            continue
        if level is None:
            # Only uncapped flows over infinite links remain; they are
            # unconstrained -- report their (infinite) fair rate.
            for key in list(unfrozen):
                freeze(key, float("inf"))
            break
        # Freeze every flow crossing an argmin (saturated) link.
        saturated = [
            link for link, keys in members.items()
            if residual[link] != float("inf")
            and any(k in unfrozen for k in keys)
            and abs(residual[link]
                    - level * _unfrozen_weight(link, members, unfrozen,
                                               info))
            <= 1e-6 * max(1.0, residual[link])
        ]
        frozen_any = False
        for link in saturated:
            for key in list(members[link]):
                if key in unfrozen:
                    freeze(key, level * info[key][2])
                    frozen_any = True
        if not frozen_any:  # numeric safety valve
            for key in list(unfrozen):
                freeze(key, level * info[key][2])
    return rate


def _unfrozen_weight(link, members, unfrozen, info):
    return sum(info[k][1] * info[k][2]
               for k in members[link] if k in unfrozen)


class FluidCohort:
    """``n`` flows sharing a path, a weight and a start time.

    All members always have the same rate, so one served-bytes-per-flow
    accumulator (:attr:`served`) advances the whole cohort in O(1);
    per-flow completions pop off :attr:`sizes` (sorted ascending).
    Sizes and rates are in *application* bytes; :attr:`overhead`
    converts to link (wire) bytes for share computation and
    ``LinkStats`` advance.
    """

    def __init__(self, links, sizes, rtt, weight=None, cwnd=None,
                 overhead=1.0, pkt_bytes=1500.0, label=""):
        self.links = tuple(links)
        #: per-simulation ordinal (the default label's suffix)
        self.cohort_id = self.links[0].sim.bus.next_id("cohort")
        self.label = label or ("cohort-%d" % self.cohort_id)
        self.sizes = sorted(float(s) for s in sizes)
        self.n = len(self.sizes)
        self.completed = 0
        # Running totals keep :meth:`total_remaining` O(1) -- the
        # closed-form advance touches it once per cohort per leap, and
        # an O(n) sum there would put the flow count back into the
        # per-event cost.
        self._size_total = float(sum(self.sizes))
        self._completed_total = 0.0
        self.rtt = max(float(rtt), 1e-6)
        self.weight = weight if weight is not None else 1.0 / self.rtt
        #: modelled congestion window in application bytes; ``None``
        #: skips slow start entirely (already-converged flows).
        self.cwnd = cwnd
        self.phase = SLOW_START if cwnd is not None else STEADY
        self.overhead = float(overhead)      # link bytes per app byte
        self.pkt_bytes = float(pkt_bytes)    # link bytes per packet
        self.served = 0.0        # app bytes served per member flow
        self.rate = 0.0          # current per-flow app bytes/s
        self.stalled_at = None
        self.next_double = None
        self._stat_residual = 0.0   # fractional packets not yet booked
        # Callbacks (all optional).
        self.on_flow_complete = None   # (cohort, newly_completed)
        self.on_all_done = None        # (cohort)
        self.on_stall = None           # (cohort)
        self.on_resume = None          # (cohort)

    @property
    def active_flows(self):
        return self.n - self.completed

    @property
    def done(self):
        return self.completed >= self.n

    def remaining_head(self):
        """App bytes until the next member flow completes."""
        if self.done:
            return None
        return max(self.sizes[self.completed] - self.served, 0.0)

    def total_remaining(self):
        """App bytes left across all member flows (O(1))."""
        return max(self._size_total - self._completed_total
                   - self.active_flows * self.served, 0.0)

    def cap_rate(self):
        """Per-flow demand ceiling in app bytes/s (``None`` = greedy)."""
        if self.phase == SLOW_START and self.cwnd is not None:
            return self.cwnd / self.rtt
        return None

    def __repr__(self):
        return "FluidCohort(%s, n=%d, %s)" % (self.label, self.n,
                                              self.phase)


class FluidEngine:
    """The fast-forward layer on a :class:`~repro.net.simulator.Simulator`.

    Keeps exactly one armed simulator event for its next internal
    transition; everything between two engine events advances in closed
    form (:meth:`_advance_to`), which *is* the leap — fluid flows never
    schedule per-packet events in the first place.

    External changes (a flow added or removed, a fault forced, a link
    hot-plugged) must call :meth:`touch`; the link/fault layers do so
    automatically once :meth:`~repro.net.simulator.Simulator.attach_fluid`
    has installed the engine on the simulator.
    """

    def __init__(self, sim):
        self.sim = sim
        self.cohorts = []
        self._t = sim.now
        self._timer = sim.timer(self._on_event)
        # Counters (mirrored into bench envelopes).
        self.leaps = 0            # closed-form advances with dt > 0
        self.leapt_time = 0.0     # simulated seconds covered by leaps
        self.solves = 0           # share recomputations
        self.events = 0           # engine event firings
        self.flows_completed = 0
        self.stalls = 0
        sim.attach_fluid(self)

    # -- population management ------------------------------------------

    def add_cohort(self, cohort):
        """Register a cohort; flows start flowing immediately."""
        self._advance_to(self.sim.now)
        self.cohorts.append(cohort)
        if cohort.phase == SLOW_START:
            cohort.next_double = self.sim.now + cohort.rtt
        self._resolve()
        return cohort

    def remove_cohort(self, cohort):
        """Deregister (bytes already served stay served)."""
        self._advance_to(self.sim.now)
        if cohort in self.cohorts:
            self.cohorts.remove(cohort)
            self._resolve()

    def touch(self):
        """Topology / population changed: re-advance and re-solve."""
        self._advance_to(self.sim.now)
        self._process_transitions()
        self._resolve()

    # -- closed-form advance --------------------------------------------

    def _advance_to(self, now):
        dt = now - self._t
        if dt <= EPS:
            self._t = max(self._t, now)
            return
        for cohort in self.cohorts:
            if cohort.rate <= 0.0 or cohort.done:
                continue
            delta = cohort.rate * dt
            # ``served`` is per-flow: never advance past the largest
            # member transfer (events fire at each head completion, so
            # this only binds numerically).
            head = max(cohort.sizes[-1] - cohort.served, 0.0)
            if delta > head:
                delta = head
            cohort.served += delta
            self._book_link_stats(cohort, delta)
        self._t = now
        self.leaps += 1
        self.leapt_time += dt

    def _book_link_stats(self, cohort, per_flow_app_bytes):
        wire = per_flow_app_bytes * cohort.active_flows * cohort.overhead
        packets = wire / cohort.pkt_bytes + cohort._stat_residual
        whole_packets = int(packets)
        cohort._stat_residual = packets - whole_packets
        whole_bytes = int(wire)
        for link in cohort.links:
            link.fluid_advance(whole_bytes, whole_packets)

    # -- transitions -----------------------------------------------------

    def _process_transitions(self):
        now = self.sim.now
        finished = []
        for cohort in list(self.cohorts):
            # Completions: pop every size the served counter has
            # passed.  The tolerance is *relative*: served accumulates
            # float error proportional to the transfer size, so an
            # absolute epsilon would strand sub-representable residues
            # and re-arm a zero-length leap forever.
            newly = 0
            while (cohort.completed < cohort.n
                   and cohort.sizes[cohort.completed] <= cohort.served
                   + max(EPS, 1e-9 * cohort.sizes[cohort.completed])):
                cohort._completed_total += cohort.sizes[cohort.completed]
                cohort.completed += 1
                newly += 1
            if newly:
                self.flows_completed += newly
                if cohort.on_flow_complete is not None:
                    cohort.on_flow_complete(cohort, newly)
            if cohort.done:
                finished.append(cohort)
                continue
            # Slow-start doubling, one per RTT.
            if (cohort.phase == SLOW_START
                    and cohort.next_double is not None
                    and cohort.next_double <= now + EPS):
                cohort.cwnd *= 2
                cohort.next_double = now + cohort.rtt
        for cohort in finished:
            self.cohorts.remove(cohort)
            if cohort.on_all_done is not None:
                cohort.on_all_done(cohort)

    def _resolve(self):
        """Recompute shares and re-arm the next engine event."""
        now = self.sim.now
        if self._apply_shares(now):
            # A resume collapsed a cwnd mid-solve: the new slow-start
            # cap must bind *now*, not one engine event later.
            self._apply_shares(now)
        self._arm()

    def _apply_shares(self, now):
        """One share computation; returns True if a cohort resumed
        (its cap changed and the shares must be recomputed)."""
        self.solves += 1
        resumed_any = False
        entries = []
        for cohort in self.cohorts:
            if cohort.done:
                continue
            cap = cohort.cap_rate()
            entries.append((
                cohort, cohort.links, cohort.active_flows, cohort.weight,
                None if cap is None else cap * cohort.overhead,
            ))
        if entries:
            shares = max_min_shares(
                entries, lambda link: link_capacity_bps(link, now) / 8.0)
        else:
            shares = {}
        for cohort in self.cohorts:
            if cohort.done:
                continue
            wire_rate = shares.get(cohort, 0.0)
            rate = (wire_rate / cohort.overhead
                    if wire_rate != float("inf") else float("inf"))
            was_stalled = cohort.stalled_at is not None
            cohort.rate = rate
            if rate <= EPS:
                if not was_stalled:
                    cohort.stalled_at = now
                    cohort.rate = 0.0
                    self.stalls += 1
                    if cohort.on_stall is not None:
                        cohort.on_stall(cohort)
            else:
                if was_stalled:
                    cohort.stalled_at = None
                    # Loss-of-state restart: resuming after an outage
                    # re-enters slow start from the initial window (the
                    # packet-level stack would have hit RTO and
                    # collapsed its cwnd).
                    if cohort.cwnd is not None:
                        cohort.phase = SLOW_START
                        cohort.cwnd = min(
                            cohort.cwnd,
                            10.0 * cohort.pkt_bytes / cohort.overhead)
                        cohort.next_double = now + cohort.rtt
                        resumed_any = True
                    if cohort.on_resume is not None:
                        cohort.on_resume(cohort)
                # Slow-start exit: cap no longer binds.
                if cohort.phase == SLOW_START:
                    cap = cohort.cap_rate()
                    if cap is None or rate < cap - EPS or rate == float("inf"):
                        cohort.phase = STEADY
                        cohort.next_double = None
        return resumed_any

    def _next_event_time(self):
        now = self.sim.now
        best = None

        def consider(t):
            nonlocal best
            if t is not None and (best is None or t < best):
                best = t

        links_seen = set()
        for cohort in self.cohorts:
            if cohort.done:
                continue
            if cohort.rate > EPS and cohort.rate != float("inf"):
                head = cohort.remaining_head()
                if head is not None:
                    consider(now + head / cohort.rate)
            elif cohort.rate == float("inf"):
                consider(now)  # degenerate: complete immediately
            if cohort.phase == SLOW_START and cohort.stalled_at is None:
                consider(cohort.next_double)
            for link in cohort.links:
                if link not in links_seen:
                    links_seen.add(link)
                    consider(link_next_change(link, now))
        return best

    def _arm(self):
        when = self._next_event_time()
        if when is None:
            self._timer.cancel()
        else:
            self._timer.arm_at(max(when, self.sim.now))

    def _on_event(self):
        self.events += 1
        self._advance_to(self.sim.now)
        self._process_transitions()
        self._resolve()


__all__ = [
    "FluidCohort",
    "FluidEngine",
    "link_capacity_bps",
    "link_next_change",
    "max_min_shares",
]
