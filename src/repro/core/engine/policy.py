"""The scheduling-policy layer: one object, two decision points.

The paper's API claim (Sec. 3.3.3) is that TCPLS exposes the
sender-side record scheduler to the application instead of hiding path
choice behind a kernel policy the way MPTCP does.  This module is that
claim made first-class: a :class:`Policy` decides

- **per record** which coupled stream carries the next record
  (:meth:`Policy.pick_stream` -- the decision
  :meth:`~repro.core.engine.pump.Pump._pump_group` consults
  on every sealed record), and
- **per transfer** which pooled connection carries a whole web object
  (:meth:`Policy.assign_transfer` -- the decision the workload layer's
  :class:`~repro.workload.transfers.TransferManager` consults when a
  page object's dependencies complete).

so a single policy object can drive both the record layer and the
web-workload layer of the stack.

Policies see only the :class:`~repro.core.engine.interfaces.Transport`
surface of each stream's connection (``tcp_info``, ``bytes_in_flight``,
``congestion_window``), so the same policy runs under any driver; at
the transfer layer they see only the read-only
:class:`~repro.workload.pool.PoolView` snapshot.

Replication (the redundant policy) is a declared *capability*
(:attr:`Policy.replicate`), not a return-type convention: the pump
checks the flag and fans the record out to every candidate itself, so
``pick_stream`` always returns exactly one stream.

The evaluation uses round-robin (Sec. 5.1: "sends the records over the
two TCP connections in a round-robin manner").
"""


class RecordContext:
    """What a policy may consult when picking a stream for one record.

    Built per pick by the pump; cheap (three slots) and read-only by
    convention.  ``group`` is the :class:`~repro.core.stream.CoupledGroup`
    being pumped, ``session`` the owning engine, ``now`` the engine
    clock at decision time.
    """

    __slots__ = ("group", "session", "now")

    def __init__(self, group=None, session=None, now=0.0):
        self.group = group
        self.session = session
        self.now = now

    @property
    def pending_bytes(self):
        """Object bytes still queued behind this decision."""
        return len(self.group.pending) if self.group is not None else 0

    def __repr__(self):
        return "RecordContext(group=%s, t=%.6f)" % (
            self.group.group_id if self.group is not None else None,
            self.now,
        )


def _pool_candidates(transfer, pool_view):
    candidates = pool_view.candidates()
    if not candidates:
        raise ValueError("no pool candidates for transfer %r" % (transfer,))
    return candidates


def _conn_srtt(stream):
    """Smoothed RTT of a stream's connection (inf when unmeasured)."""
    info = stream.connection.tcp.tcp_info()
    srtt = info.get("srtt")
    return srtt if srtt is not None else float("inf")


def _conn_headroom(stream):
    """Does the congestion window still have room for more data?"""
    tcp = stream.connection.tcp
    return tcp.bytes_in_flight() < tcp.congestion_window()


class Policy:
    """Base scheduling policy: both decision points, safe defaults.

    Subclasses override :meth:`pick_stream` (record scheduling) and
    optionally :meth:`assign_transfer` (transfer placement).
    """

    #: human-readable policy name, carried on every ``scheduler`` bus
    #: event this policy's decisions emit
    name = "policy"
    #: capability flag: when True the pump replicates each record onto
    #: every candidate stream instead of calling :meth:`pick_stream`
    replicate = False

    # -- decision point 1: record -> stream ------------------------------

    def pick_stream(self, streams, record_ctx=None):
        """Pick the stream that carries the next record.

        ``streams`` is the non-empty list of currently sendable coupled
        streams; ``record_ctx`` (a :class:`RecordContext`, possibly
        None for bare callers) describes the decision point.
        """
        raise NotImplementedError

    # -- decision point 2: transfer -> pooled connection -----------------

    def assign_transfer(self, transfer, pool_view):
        """Pick the pool candidate that carries a whole transfer.

        ``pool_view`` is a read-only
        :class:`~repro.workload.pool.PoolView`; the returned candidate
        must come from ``pool_view.candidates()``.  The default
        placement is the browser-ish baseline: reuse an idle connection
        when one exists, open a fresh one while the per-host limit
        allows, otherwise share the least-loaded busy connection.
        """
        candidates = _pool_candidates(transfer, pool_view)
        idle = [c for c in candidates if c.kind == "reuse"]
        if idle:
            return idle[0]
        fresh = [c for c in candidates if c.kind == "new"]
        if fresh:
            return fresh[0]
        return min(candidates, key=lambda c: (c.active, c.index))

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, self.name)


class RoundRobinScheduler(Policy):
    """Alternate over the coupled streams in order."""

    name = "round-robin"

    def __init__(self):
        self._index = 0
        self._transfer_index = 0

    def pick_stream(self, streams, record_ctx=None):
        if not streams:
            raise ValueError("no streams to schedule")
        stream = streams[self._index % len(streams)]
        self._index += 1
        return stream

    def assign_transfer(self, transfer, pool_view):
        """Rotate over every assignable candidate (opening new
        connections counts as one rotation slot, so a fresh pool warms
        up to its per-host limit round by round)."""
        candidates = _pool_candidates(transfer, pool_view)
        choice = candidates[self._transfer_index % len(candidates)]
        self._transfer_index += 1
        return choice


class LowestRttScheduler(Policy):
    """MPTCP's default policy: prefer the lowest-SRTT connection with
    congestion-window room; fall back to lowest SRTT."""

    name = "lowest-rtt"

    def pick_stream(self, streams, record_ctx=None):
        if not streams:
            raise ValueError("no streams to schedule")
        with_room = [s for s in streams if _conn_headroom(s)]
        candidates = with_room or list(streams)
        return min(candidates, key=_conn_srtt)

    def assign_transfer(self, transfer, pool_view):
        """Lowest measured RTT wins; an unopened candidate (no RTT yet)
        is only chosen when nothing has been measured."""
        return min(_pool_candidates(transfer, pool_view),
                   key=lambda c: (c.srtt(), c.active, c.index))


class WeightedScheduler(Policy):
    """Deficit-round-robin weighted interleaving.

    Weights map positionally onto the *offered stream list* each pick
    (stream ``i`` gets ``weights[i % len(weights)]``), but credit is
    tracked per stream identity, so streams keep their earned share
    when the candidate list shrinks and grows between picks (a stalled
    connection dropping out must not strand its credit the way the old
    positional accounting did).
    """

    name = "weighted"

    def __init__(self, weights):
        if not weights or any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        self.weights = list(weights)
        self._credit = {}

    @staticmethod
    def _key(stream):
        """Stable identity for credit bookkeeping: the TCPLS stream id
        when there is one, the object itself otherwise (unit tests
        schedule over plain placeholders)."""
        key = getattr(stream, "stream_id", None)
        return key if key is not None else stream

    def _weight_of(self, index):
        return self.weights[index % len(self.weights)]

    def pick_stream(self, streams, record_ctx=None):
        if not streams:
            raise ValueError("no streams to schedule")
        keys = [self._key(s) for s in streams]
        # Drop credit of streams no longer offered; a refill must not
        # resurrect a detached stream's balance onto its successor.
        live = set(keys)
        for stale in [k for k in self._credit if k not in live]:
            del self._credit[stale]
        for _round in (0, 1):
            for index, stream in enumerate(streams):
                if self._credit.get(keys[index], 0) > 0:
                    self._credit[keys[index]] -= 1
                    return stream
            # Everyone is out of credit: refill one quantum per offered
            # stream (deficit round-robin); the retry below must succeed
            # because weights are strictly positive.
            for index, key in enumerate(keys):
                self._credit[key] = (self._credit.get(key, 0)
                                     + self._weight_of(index))
        raise AssertionError("refilled credits must be spendable")


class RedundantScheduler(Policy):
    """Send every record on every stream (latency-critical traffic;
    the receiver's reorder buffer discards the duplicates).

    Declared through the :attr:`~Policy.replicate` capability flag: the
    pump fans the record out itself, so :meth:`pick_stream` -- used
    when a replicating policy is asked for exactly one stream -- simply
    returns the first candidate.
    """

    name = "redundant"
    replicate = True

    def pick_stream(self, streams, record_ctx=None):
        if not streams:
            raise ValueError("no streams to schedule")
        return streams[0]


class PredictivePolicy(Policy):
    """Estimate each candidate's completion time before committing.

    The trick the workload layer exists to exercise: because the engine
    is sans-I/O and the simulator deterministic, a candidate's future
    is cheap to compute.  For every candidate the policy forks a
    throwaway clock (a :class:`~repro.core.engine.replay.ManualClock`)
    and fast-forwards a fluid-style congestion model seeded from the
    candidate's *live* transport state -- srtt, cwnd, bytes in flight,
    queued backlog -- until the hypothetical transfer completes, then
    commits to the candidate with the earliest estimated finish.

    The estimator intentionally mirrors the fluid engine's flow model
    (slow-start doubling each RTT until a rate cap binds; see
    ``repro.net.fluid``): it is a *model* of the candidate's future,
    not a replay of the whole network -- cross-traffic that appears
    after the decision is not predicted (see DESIGN.md for the
    caveats).
    """

    name = "predictive"

    #: modelled segment size for turning cwnd into a rate
    MSS = 1500.0

    def __init__(self, rate_cap_bps=None, horizon=30.0):
        #: optional known path capacity; None = cwnd/srtt only
        self.rate_cap_bps = rate_cap_bps
        #: give up estimating past this many simulated seconds
        self.horizon = horizon
        #: estimates of the last decision: ``[(estimate_s, label)]``
        self.last_estimates = []

    # -- the forked-clock estimator --------------------------------------

    def estimate_completion(self, nbytes, srtt, cwnd,
                            backlog=0.0, rate_cap_bps=None):
        """Fast-forward a forked clock until ``nbytes`` would be fully
        delivered on a path with the given state; returns seconds.

        One RTT per step: ``cwnd`` bytes leave, then the window doubles
        (slow start) until the cap ``rate_cap_bps * srtt`` binds --
        exactly the cohort model the fluid engine advances in closed
        form, run here step-by-step on a private ManualClock.
        """
        from repro.core.engine.replay import ManualClock

        if srtt is None or srtt <= 0.0 or srtt == float("inf"):
            return float("inf")
        cap = rate_cap_bps if rate_cap_bps is not None else self.rate_cap_bps
        cwnd = max(float(cwnd), self.MSS)
        cwnd_cap = (cap / 8.0) * srtt if cap else float("inf")
        remaining = float(nbytes) + float(backlog)
        clock = ManualClock()
        while remaining > 0.0 and clock.now < self.horizon:
            window = min(cwnd, cwnd_cap)
            if remaining <= window:
                # Partial final window: sending time scales with the
                # fraction used, plus half an RTT for the last records
                # to land.
                clock.advance(srtt * (remaining / window) + srtt / 2.0)
                remaining = 0.0
                break
            clock.advance(srtt)
            remaining -= window
            cwnd = min(cwnd * 2.0, cwnd_cap) if cwnd_cap != float("inf") \
                else cwnd * 2.0
        return clock.now if remaining <= 0.0 else float("inf")

    # -- decision point 1 -------------------------------------------------

    def pick_stream(self, streams, record_ctx=None):
        if not streams:
            raise ValueError("no streams to schedule")
        nbytes = (record_ctx.pending_bytes if record_ctx is not None
                  else self.MSS) or self.MSS
        self.last_estimates = []
        best = None
        best_eta = None
        for stream in streams:
            tcp = stream.connection.tcp
            info = tcp.tcp_info()
            eta = self.estimate_completion(
                nbytes, info.get("srtt"), tcp.congestion_window(),
                backlog=tcp.unsent_bytes() + tcp.bytes_in_flight(),
            )
            self.last_estimates.append((eta, stream))
            if best_eta is None or eta < best_eta:
                best, best_eta = stream, eta
        if best_eta == float("inf"):
            # Nothing measurable yet (fresh connections): fall back to
            # first candidate rather than guessing.
            return streams[0]
        return best

    # -- decision point 2 -------------------------------------------------

    def assign_transfer(self, transfer, pool_view):
        candidates = _pool_candidates(transfer, pool_view)
        size = float(getattr(transfer, "size", 0) or self.MSS)
        self.last_estimates = []
        best = None
        best_key = None
        for candidate in candidates:
            srtt = candidate.srtt()
            if srtt == float("inf"):
                # Unopened connection: model it as the host's typical
                # path (the view's median measured RTT) plus one
                # handshake RTT of setup, from a cold IW10 window.
                typical = pool_view.typical_srtt()
                if typical is None:
                    eta = float("inf")
                else:
                    eta = typical + self.estimate_completion(
                        size, typical, 10 * self.MSS)
            else:
                eta = self.estimate_completion(
                    size, srtt, candidate.cwnd(),
                    backlog=candidate.backlog_bytes())
            self.last_estimates.append((eta, candidate))
            key = (eta, candidate.active, candidate.index)
            if best_key is None or key < best_key:
                best, best_key = candidate, key
        if best_key[0] == float("inf"):
            return Policy.assign_transfer(self, transfer, pool_view)
        return best


__all__ = [
    "LowestRttScheduler",
    "Policy",
    "PredictivePolicy",
    "RecordContext",
    "RedundantScheduler",
    "RoundRobinScheduler",
    "WeightedScheduler",
]
