"""Scripted mass-session load generator (the C1M harness).

Drives thousands of client TCPLS sessions against one
:class:`~repro.core.drivers.multi.MultiSessionServer` inside a single
discrete-event simulation, with scripted churn:

- **connect waves**: sessions ramp up in evenly spaced waves;
- **transfers**: each session runs a request/response exchange of
  ``transfer_bytes`` (psk_ke handshakes by default, so per-session
  cost stays flat at scale);
- **MPJOINs**: a deterministic fraction of sessions joins a second
  path shortly after becoming ready;
- **failovers**: a dedicated session group keeps its primary on a
  sacrificial path that the fault DSL takes down mid-transfer, forcing
  UTO-triggered failover onto the joined path (the Fig. 9 machinery at
  herd scale);
- **close/reconnect churn**: a fraction of the first generation closes
  and is replaced by a second generation of sessions.

Every metric is derived from simulator time and deterministic
counters; a fixed configuration yields byte-identical results on every
run -- the property the churn/soak test and the ``bench_c1m``
determinism gate assert.  ``run_shard`` is a top-level function so
:func:`repro.perf.matrix.run_matrix` can pickle it by reference into
spawn workers for the listener-per-shard layout (shard ``i`` listens
on ``base_port + i``).
"""

from repro.core.drivers.multi import MultiSessionServer
from repro.core.drivers.sim import SimDriver, TcplsClient
from repro.core.engine.events import SessionEvent
from repro.net import Simulator, build_dumbbell, build_faulty_multipath
from repro.net.fluid import FluidCohort, FluidEngine
from repro.tcp import TcpStack
from repro.net.address import Endpoint

_PSK = b"c1m-loadgen-psk"


def build_wave_schedule(count, waves, wave_interval, start=0.0):
    """Deterministic connect schedule shared by the packet (C1M) and
    fluid population harnesses: ``count`` sessions ramp up in ``waves``
    evenly spaced waves of ``ceil(count / waves)``.

    Returns a list of ``(time, index)`` pairs in firing order; the last
    wave may be short.  Both :class:`LoadgenHarness` and
    :class:`FluidScenarioHarness` drive their ramps off this one
    builder, so a fluid run and a packet run of the same population use
    byte-identical start times.
    """
    per_wave = max(1, -(-count // max(1, waves)))
    schedule = []
    index = 0
    wave = 0
    while index < count:
        t = start + wave * wave_interval
        for _ in range(min(per_wave, count - index)):
            schedule.append((t, index))
            index += 1
        wave += 1
    return schedule


def _percentile(sorted_values, fraction):
    if not sorted_values:
        return None
    index = int(fraction * (len(sorted_values) - 1))
    return round(sorted_values[index], 9)


def _latency_stats(samples):
    ordered = sorted(samples)
    return {
        "count": len(ordered),
        "p50": _percentile(ordered, 0.50),
        "p99": _percentile(ordered, 0.99),
        "max": round(ordered[-1], 9) if ordered else None,
    }


class _ClientScript:
    """One scripted client session: connect, transfer, maybe join,
    maybe fail over, close on cue."""

    def __init__(self, harness, index, generation=0):
        self.harness = harness
        self.index = index
        self.generation = generation
        self.is_joiner = False
        self.is_failover = False
        self.t_connect = None
        self.t_ready = None
        self.t_request = None
        self.received = 0
        self.expected = 0
        self.client = None
        self.closed = False

    # -- lifecycle -------------------------------------------------------

    def connect(self):
        if self.closed:
            return
        h = self.harness
        self.t_connect = h.sim.now
        client = TcplsClient(
            h.sim, h.cstack, psk=_PSK, key_exchange=h.key_exchange,
        )
        if self.is_failover:
            client.auto_user_timeout = h.uto
        client.on_ready = self._on_ready
        client.on_stream_data = self._on_stream_data
        client.subscribe(SessionEvent.JOIN, self._on_join)
        if self.is_failover:
            client.subscribe(SessionEvent.JOIN,
                             lambda _conn: client.enable_failover())
        self.client = client
        path = h.failover_path if self.is_failover else 0
        p = h.topo.path(path)
        client.connect(p.client_addr, Endpoint(p.server_addr, h.port))
        h.counters["started"] += 1

    def _on_ready(self, _session):
        h = self.harness
        self.t_ready = h.sim.now
        h.handshake_latencies.append(self.t_ready - self.t_connect)
        h.counters["ready"] += 1
        # Trim handshake state like the server mux does (the client
        # side would otherwise dominate a 10k-session run's memory).
        h.sim.schedule(0.0, self._release_handshakes)
        if self.is_failover:
            # Join the stable path now; a second, larger transfer is
            # launched so the response is mid-flight when the scripted
            # outage kills the primary path -- the peer's UTO then
            # drives failover onto the joined connection.
            h.sim.schedule(h.join_delay, self._join, 0)
            h.sim.schedule(max(h.t_fail - 0.01 - h.sim.now, 2 * h.join_delay),
                           self._start_transfer, h.failover_bytes)
        elif self.is_joiner:
            h.sim.schedule(h.join_delay, self._join, 1)
        self._start_transfer(h.transfer_bytes)

    def _release_handshakes(self):
        for conn in self.client.conns:
            conn.release_handshake()

    def _join(self, path):
        if self.closed or not self.client.ready:
            return
        h = self.harness
        if not (self.client.cookies or self.client.tokens):
            return
        p = h.topo.path(path)
        try:
            self.client.join(p.client_addr,
                             remote=Endpoint(p.server_addr, h.port))
        except Exception:
            return
        h.counters["joins_attempted"] += 1

    def _on_join(self, _conn):
        self.harness.counters["joins_completed"] += 1
        self.harness.sim.schedule(0.0, self._release_handshakes)

    def _start_transfer(self, nbytes):
        if self.closed or not self.client.ready:
            return
        conn = next((c for c in self.client.conns if c.usable()), None)
        if conn is None:
            return
        self.t_request = self.harness.sim.now
        self.expected += nbytes
        stream = self.client.create_stream(conn)
        # 32-byte sized request: "R" + zero-padded response length.
        stream.send(b"R%031d" % nbytes)
        # Half-close: a stream left open would read as an unfinished
        # transfer and trip the peer's user-timeout while idle.
        stream.close()

    def _on_stream_data(self, stream):
        h = self.harness
        chunk = stream.recv()
        self.received += len(chunk)
        h.counters["bytes"] += len(chunk)
        if self.t_request is not None and self.received >= self.expected:
            h.transfer_latencies.append(h.sim.now - self.t_request)
            h.counters["transfers"] += 1
            self.t_request = None

    def close(self):
        if self.closed:
            return
        self.closed = True
        if self.client is not None:
            self.client.close()
            self.harness.counters["closed"] += 1


class LoadgenHarness:
    """One shard's simulation: server mux + N scripted clients."""

    def __init__(self, sessions=1000, seed=42, shard=0,
                 waves=20, wave_interval=0.05,
                 transfer_bytes=4096, join_fraction=0.05,
                 failover_sessions=16, failover_bytes=262144,
                 churn_fraction=0.25,
                 budget_bytes=256 * 1024, key_exchange="psk",
                 rate_bps=10_000_000_000, delay=0.002,
                 uto=0.25, horizon=60.0, port=4443):
        self.sessions = sessions
        self.seed = seed
        self.shard = shard
        self.waves = waves
        self.wave_interval = wave_interval
        self.transfer_bytes = transfer_bytes
        self.failover_bytes = failover_bytes
        self.join_fraction = join_fraction
        self.failover_sessions = min(failover_sessions, sessions)
        self.churn_fraction = churn_fraction
        self.key_exchange = key_exchange
        self.uto = uto
        self.horizon = horizon
        self.port = port
        self.join_delay = 0.05
        self.failover_path = 2

        self.sim = Simulator(seed=seed + shard)
        self.topo = build_faulty_multipath(
            self.sim, n_paths=3, rate_bps=rate_bps, delay=delay)
        self.cstack = TcpStack(self.sim, self.topo.client)
        self.sstack = TcpStack(self.sim, self.topo.server)
        self.driver = SimDriver(self.sim, self.sstack)
        self.mux = MultiSessionServer(
            self.driver, port, _PSK, budget_bytes=budget_bytes,
            auto_retire=True,
        )
        self.mux.on_session = self._serve

        self.handshake_latencies = []
        self.transfer_latencies = []
        self.counters = {
            "started": 0, "ready": 0, "transfers": 0, "bytes": 0,
            "joins_attempted": 0, "joins_completed": 0, "closed": 0,
            "server_failovers": 0,
        }
        self.peak_sessions = 0
        self.scripts = []

        # Scripted timeline.
        ramp = waves * wave_interval
        self.t_hold = ramp + 0.6
        self.t_fail = self.t_hold + 0.2
        self.t_churn = self.t_fail + 1.0
        self.t_close = self.t_churn + 1.2

    # -- server side -----------------------------------------------------

    def _serve(self, session):
        requests = {}

        def on_stream_data(stream):
            data = stream.recv()
            buf = requests.get(stream.stream_id, b"")
            if buf is None:
                return
            buf += data
            if len(buf) >= 32:
                requests[stream.stream_id] = None    # answered
                stream.send(b"\x00" * int(buf[1:32]))
                stream.close()
            else:
                requests[stream.stream_id] = buf

        def on_failover(_old, _new):
            self.counters["server_failovers"] += 1

        session.on_stream_data = on_stream_data
        session.on_failover = on_failover

    # -- script ----------------------------------------------------------

    def _sample(self):
        self.peak_sessions = max(self.peak_sessions,
                                 self.mux.session_count())

    def _schedule_generation(self, count, start, generation):
        last_t = None
        for t, index in build_wave_schedule(
                count, self.waves, self.wave_interval, start):
            if last_t is not None and t != last_t:
                self.sim.schedule(last_t + self.wave_interval, self._sample)
            last_t = t
            script = _ClientScript(self, index, generation)
            if generation == 0:
                if index < self.failover_sessions:
                    script.is_failover = True
                elif self.join_fraction and index % max(
                        1, int(1 / self.join_fraction)) == 0:
                    script.is_joiner = True
            self.scripts.append(script)
            self.sim.schedule(t, script.connect)
        if last_t is not None:
            self.sim.schedule(last_t + self.wave_interval, self._sample)

    def run(self):
        self._schedule_generation(self.sessions, 0.0, 0)
        gen1 = list(self.scripts)

        # Outage: the failover group's primary path dies mid-transfer.
        self.sim.schedule(self.t_fail, self.topo.set_path_down,
                          self.failover_path, True)
        self.sim.schedule(self.t_hold, self._sample)

        # Churn: close a fraction of generation 1, replace with
        # generation 2.
        churn_count = int(self.sessions * self.churn_fraction)

        def close_churned():
            victims = [s for s in gen1
                       if not s.is_failover][:churn_count]
            for script in victims:
                script.close()

        self.sim.schedule(self.t_churn, close_churned)
        if churn_count:
            self._schedule_generation(churn_count, self.t_churn + 0.1, 1)

        def close_rest():
            for script in self.scripts:
                script.close()

        self.sim.schedule(self.t_close, close_rest)
        self.sim.schedule(self.t_close - 0.01, self._sample)
        # One second past the scripted close is enough for every FIN
        # exchange and retire to drain; the cap keeps degenerate
        # configurations bounded.
        self.sim.run(until=min(self.horizon, self.t_close + 1.0))
        return self.metrics()

    # -- results ---------------------------------------------------------

    def metrics(self):
        c = dict(self.counters)
        failovers = c["server_failovers"] + sum(
            s.client.stats["failovers"]
            for s in self.scripts if s.client is not None)
        elapsed = round(self.sim.now, 9)
        done = self.t_close
        table = self.mux.table
        metrics = {
            "shard": self.shard,
            "sessions": self.sessions,
            "started": c["started"],
            "ready": c["ready"],
            "transfers_completed": c["transfers"],
            "joins_completed": c["joins_completed"],
            "failovers": failovers,
            "closed": c["closed"],
            "peak_concurrent_sessions": self.peak_sessions,
            "table_peak": table.peak,
            "table_end": len(table),
            "sessions_end": self.mux.session_count(),
            "accepts": table.accepts,
            "attaches": table.attaches,
            "teardowns": table.teardowns,
            "budget_pauses": self.mux.pauses,
            "retired": self.mux.retired,
            "bytes_delivered": c["bytes"],
            "handshake_latency": _latency_stats(self.handshake_latencies),
            "transfer_latency": _latency_stats(self.transfer_latencies),
            # Sim-time rates: deterministic, unlike wall-clock ones.
            "sessions_per_sec": round(c["ready"] / done, 3),
            "bytes_per_sec": round(c["bytes"] / done, 3),
            "sim_elapsed": elapsed,
            # Simulator internals (heap hygiene), mirrored into the
            # bench ``--json`` envelopes.
            "heap_compactions": self.sim.compactions,
        }
        return metrics


def _jain(values):
    """Jain's fairness index: 1.0 = perfectly equal."""
    values = [v for v in values if v is not None]
    if not values:
        return None
    square_of_sum = sum(values) ** 2
    sum_of_squares = sum(v * v for v in values)
    if sum_of_squares <= 0.0:
        return None
    return round(square_of_sum / (len(values) * sum_of_squares), 6)


class FluidScenarioHarness:
    """Pure-fluid population scenarios at 100k-flow scale.

    Unlike :class:`LoadgenHarness` (real TCPLS sessions, one event per
    packet), these scenarios drive
    :class:`~repro.net.fluid.FluidCohort` populations over a host-less
    dumbbell.  Each (wave, leaf) pair is one cohort, so a run costs
    O(waves x leaves) share recomputations plus one engine event per
    distinct completion time -- which is what lets 100_000 flows finish
    in seconds of wall clock where the packet simulator would need
    hundreds of millions of events.

    The connect ramp comes from :func:`build_wave_schedule`, the same
    builder the packet C1M harness uses, so fluid and packet
    populations share one deterministic schedule.

    Scenarios
    ---------
    ``fairness``
        Flow groups with per-leaf one-way delays ``delay .. leaves x
        delay`` share the core.  The probe records converged per-flow
        rates; with 1/rtt weights the product ``rate x rtt`` should be
        equal across groups (reported as a Jain index).
    ``incast``
        Every group fans into one receiver access link that is the
        bottleneck; the probe reports its utilization.
    ``failover_storm``
        All groups cross the primary core; at ``fail_at`` it is forced
        down, every cohort stalls at once, and after ``detect_delay``
        (the user-timeout analogue) each restarts -- in slow start --
        on the backup core.
    """

    SCENARIOS = ("fairness", "incast", "failover_storm")

    def __init__(self, scenario="fairness", flows=100_000, seed=42,
                 flow_bytes=1_000_000, waves=20, wave_interval=0.05,
                 leaves=8, leaf_rate_bps=1_000_000_000,
                 core_rate_bps=10_000_000_000, delay=0.005,
                 detect_delay=0.2, fail_at=None, horizon=3600.0):
        if scenario not in self.SCENARIOS:
            raise ValueError("unknown fluid scenario %r" % scenario)
        self.scenario = scenario
        self.flows = flows
        self.flow_bytes = float(flow_bytes)
        self.waves = waves
        self.wave_interval = wave_interval
        self.leaves = leaves
        self.detect_delay = detect_delay
        ramp = waves * wave_interval
        self.fail_at = fail_at if fail_at is not None else ramp + 0.4
        self.t_probe = ramp + 0.3
        self.horizon = horizon

        self.sim = Simulator(seed=seed)
        leaf_delays = None
        n_leaves = leaves
        if scenario == "fairness":
            leaf_delays = [delay * (i + 1) for i in range(leaves)]
            # RTT weighting is only observable when the *shared* core
            # binds; uncapped access links keep the leaves out of the
            # allocation.
            leaf_rate_bps = core_rate_bps
        elif scenario == "incast":
            n_leaves = leaves + 1          # last leaf = receiver access
        self.topo = build_dumbbell(
            self.sim, n_leaves=n_leaves, leaf_rate_bps=leaf_rate_bps,
            core_rate_bps=core_rate_bps, delay=delay,
            leaf_delays=leaf_delays, backup=(scenario == "failover_storm"))
        self.engine = FluidEngine(self.sim)

        self.cohorts_started = 0
        self.flows_completed = 0
        self.last_completion = None
        self.migrations = 0
        self.probe_result = None
        self._iw = 10 * 1500.0     # modelled initial window (IW10)

    # -- population -------------------------------------------------------

    def _path(self, leaf):
        if self.scenario == "incast":
            return [self.topo.leaves[leaf], self.topo.core,
                    self.topo.leaves[-1]]
        return self.topo.path(leaf)

    def _rtt(self, links):
        return 2.0 * sum(link.delay for link in links)

    def _watch(self, cohort):
        cohort.on_flow_complete = self._on_flow_complete
        if self.scenario == "failover_storm":
            cohort.on_stall = self._on_stall

    def _start_cohort(self, leaf, count):
        links = self._path(leaf)
        cohort = FluidCohort(
            links, [self.flow_bytes] * count, rtt=self._rtt(links),
            cwnd=self._iw, label="leaf%d-w%d" % (leaf, self.cohorts_started))
        cohort.leaf = leaf
        self._watch(cohort)
        self.cohorts_started += 1
        self.engine.add_cohort(cohort)

    def _on_flow_complete(self, _cohort, newly):
        self.flows_completed += newly
        self.last_completion = self.sim.now

    # -- failover storm ---------------------------------------------------

    def _on_stall(self, cohort):
        # The outage-detection delay models the user timeout the packet
        # stack would need before declaring the path dead.
        self.sim.schedule(self.detect_delay, self._migrate, cohort)

    def _migrate(self, cohort):
        if cohort.done or cohort.stalled_at is None:
            return
        if cohort not in self.engine.cohorts:
            return
        self.engine.remove_cohort(cohort)
        remaining = [s - cohort.served
                     for s in cohort.sizes[cohort.completed:]]
        if not remaining:
            return
        links = [self.topo.leaves[cohort.leaf], self.topo.backup]
        moved = FluidCohort(links, remaining, rtt=self._rtt(links),
                            cwnd=self._iw, label=cohort.label + "-bk")
        moved.leaf = cohort.leaf
        self._watch(moved)
        self.migrations += 1
        self.engine.add_cohort(moved)

    # -- probe ------------------------------------------------------------

    def _probe(self):
        core = self.topo.core
        util = 0.0
        rate_rtt = []
        bottleneck = (self.topo.leaves[-1] if self.scenario == "incast"
                      else core)
        for cohort in self.engine.cohorts:
            if cohort.done:
                continue
            if bottleneck in cohort.links:
                util += cohort.rate * cohort.active_flows * 8.0
            rate_rtt.append(cohort.rate * cohort.rtt)
        capacity = float(bottleneck.rate_bps or 0.0)
        self.probe_result = {
            "time": round(self.sim.now, 9),
            "active_cohorts": sum(1 for c in self.engine.cohorts
                                  if not c.done),
            "bottleneck_utilization": (round(util / capacity, 6)
                                       if capacity else None),
            "jain_rate_x_rtt": _jain(rate_rtt),
        }

    # -- driver -----------------------------------------------------------

    def run(self):
        schedule = build_wave_schedule(
            self.flows, self.waves, self.wave_interval)
        # Group the per-flow schedule into one cohort per (wave, leaf).
        groups = {}
        for t, index in schedule:
            key = (t, index % self.leaves)
            groups[key] = groups.get(key, 0) + 1
        for (t, leaf), count in sorted(groups.items()):
            self.sim.schedule(t, self._start_cohort, leaf, count)
        self.sim.schedule(self.t_probe, self._probe)
        if self.scenario == "failover_storm":
            self.sim.schedule(self.fail_at, self.topo.core.set_up, False)
        self.sim.run(until=self.horizon)
        return self.metrics()

    def metrics(self):
        engine = self.engine
        links = {link.name: {"tx_bytes": link.stats.tx_bytes,
                             "tx_packets": link.stats.tx_packets}
                 for link in self.topo.links()}
        return {
            "scenario": self.scenario,
            "flows": self.flows,
            "flows_completed": self.flows_completed,
            "cohorts": self.cohorts_started,
            "migrations": self.migrations,
            "stalls": engine.stalls,
            "last_completion": (round(self.last_completion, 9)
                                if self.last_completion is not None
                                else None),
            "sim_elapsed": round(self.sim.now, 9),
            "bytes_total": int(self.flows_completed * self.flow_bytes),
            "probe": self.probe_result,
            "fluid_leaps": engine.leaps,
            "fluid_leapt_time": round(engine.leapt_time, 9),
            "fluid_solves": engine.solves,
            "fluid_events": engine.events,
            "heap_compactions": self.sim.compactions,
            "links": links,
        }


def run_fluid_scenario(**kwargs):
    """Run one fluid population scenario; returns its metrics dict.

    Top-level (picklable) so spawn workers can fan scenarios out in
    parallel next to the packet C1M shards.
    """
    return FluidScenarioHarness(**kwargs).run()


def run_shard(**kwargs):
    """Run one loadgen shard; returns its deterministic metrics dict.

    Top-level (picklable) so spawn workers can run shards in parallel:
    shard ``i`` of ``n`` serves ``sessions`` sessions on
    ``base_port + i`` in its own process, and the merged JSON is
    byte-identical for any worker count.
    """
    return LoadgenHarness(**kwargs).run()


def shard_points(total_sessions, n_shards, base_port=4443, **kwargs):
    """Matrix points for a sharded run (listener-per-shard layout)."""
    from repro.perf.matrix import MatrixPoint

    per_shard = total_sessions // n_shards
    points = []
    for shard in range(n_shards):
        count = per_shard + (1 if shard < total_sessions % n_shards else 0)
        cfg = dict(kwargs)
        cfg.update(sessions=count, shard=shard, port=base_port + shard)
        points.append(MatrixPoint("c1m/shard%d" % shard, run_shard, cfg))
    return points


def merge_shards(results):
    """Aggregate per-shard metrics into one deterministic summary."""
    total = {
        "shards": len(results),
        "started": 0, "ready": 0, "transfers_completed": 0,
        "joins_completed": 0, "failovers": 0,
        "peak_concurrent_sessions": 0, "table_peak": 0,
        "table_end": 0, "sessions_end": 0, "bytes_delivered": 0,
        "budget_pauses": 0, "retired": 0,
        "heap_compactions": 0,
    }
    hs_p99 = []
    tr_p99 = []
    rate = 0.0
    bytes_rate = 0.0
    for result in results:
        for key in ("started", "ready", "transfers_completed",
                    "joins_completed", "failovers", "table_end",
                    "sessions_end", "bytes_delivered", "budget_pauses",
                    "retired", "heap_compactions"):
            total[key] += result[key]
        for key in ("peak_concurrent_sessions", "table_peak"):
            total[key] += result[key]
        if result["handshake_latency"]["p99"] is not None:
            hs_p99.append(result["handshake_latency"]["p99"])
        if result["transfer_latency"]["p99"] is not None:
            tr_p99.append(result["transfer_latency"]["p99"])
        rate += result["sessions_per_sec"]
        bytes_rate += result["bytes_per_sec"]
    total["p99_handshake_s"] = max(hs_p99) if hs_p99 else None
    total["p99_transfer_s"] = max(tr_p99) if tr_p99 else None
    total["sessions_per_sec"] = round(rate, 3)
    # One shard == one core in the layout, so the per-core figure is
    # the mean shard rate.
    total["bytes_per_core_per_s"] = round(
        bytes_rate / max(len(results), 1), 3)
    return total


__all__ = [
    "FluidScenarioHarness",
    "LoadgenHarness",
    "build_wave_schedule",
    "merge_shards",
    "run_fluid_scenario",
    "run_shard",
    "shard_points",
]
