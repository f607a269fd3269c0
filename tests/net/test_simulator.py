"""Event loop: ordering, cancellation, determinism."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(0.5, fired.append, "b")
    sim.schedule(0.1, fired.append, "a")
    sim.schedule(0.9, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == pytest.approx(0.9)


def test_equal_time_events_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for tag in range(10):
        sim.at(1.0, fired.append, tag)
    sim.run()
    assert fired == list(range(10))


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    keep = sim.schedule(0.2, fired.append, "keep")
    drop = sim.schedule(0.1, fired.append, "drop")
    drop.cancel()
    sim.run()
    assert fired == ["keep"]
    assert keep.cancelled is False


def test_run_until_stops_the_clock():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(5.0, fired.append, "late")
    sim.run(until=2.0)
    assert fired == ["early"]
    assert sim.now == pytest.approx(2.0)
    sim.run()
    assert fired == ["early", "late"]


def test_next_time_is_never_later_than_the_next_firing():
    sim = Simulator()
    assert sim.next_time() is None
    sim.schedule(2.0, lambda: None)
    early = sim.schedule(1.0, lambda: None)
    assert sim.next_time() == 1.0
    early.cancel()       # a dead head entry may wake a loop early
    assert sim.next_time() == 1.0
    sim.run(until=1.5)
    assert sim.next_time() == 2.0


def test_scheduling_into_the_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.at(0.5, lambda: None)
    with pytest.raises(ValueError):
        sim.schedule(-0.1, lambda: None)


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(0.1, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]


def test_max_events_guard():
    sim = Simulator()

    def forever():
        sim.schedule(0.001, forever)

    sim.schedule(0.0, forever)
    with pytest.raises(RuntimeError):
        sim.run(until=10.0, max_events=50)


def test_rng_determinism():
    values_a = [Simulator(seed=42).rng.random() for _ in range(3)]
    values_b = [Simulator(seed=42).rng.random() for _ in range(3)]
    assert values_a == values_b


def test_pending_events_counts_uncancelled():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    event = sim.schedule(2.0, lambda: None)
    event.cancel()
    assert sim.pending_events == 1


def test_pending_events_is_o1_counter():
    sim = Simulator()
    events = [sim.schedule(1.0 + i, lambda: None) for i in range(10)]
    assert sim.pending_events == 10
    for event in events[:4]:
        event.cancel()
    assert sim.pending_events == 6
    events[0].cancel()  # idempotent: must not double-count
    assert sim.pending_events == 6


def test_cancel_after_firing_is_harmless():
    sim = Simulator()
    event = sim.schedule(0.1, lambda: None)
    sim.run()
    event.cancel()
    event.cancel()
    assert sim.pending_events == 0


def test_compaction_drops_cancelled_events():
    from repro.net.simulator import MIN_COMPACT

    sim = Simulator()
    total = 2 * MIN_COMPACT + 10
    events = [sim.schedule(1.0 + i, lambda: None) for i in range(total)]
    for event in events[:MIN_COMPACT + 5]:
        event.cancel()
    assert sim.compactions >= 1
    assert len(sim._queue) == total - (MIN_COMPACT + 5)
    assert sim.pending_events == total - (MIN_COMPACT + 5)


def test_compaction_preserves_firing_order():
    from repro.net.simulator import MIN_COMPACT

    n = 3 * MIN_COMPACT
    expected_sim = Simulator()
    expected = []
    for i in range(n):
        expected_sim.schedule((i * 37 % 11) / 10.0, expected.append, i)
    expected_sim.run()

    sim = Simulator()
    fired = []
    keepers = []
    for i in range(n):
        keepers.append(sim.schedule((i * 37 % 11) / 10.0, fired.append, i))
        # interleave churn that forces at least one compaction
        sim.schedule(0.05, lambda: None).cancel()
    assert sim.compactions >= 1
    sim.run()
    assert fired == expected


def test_compaction_emits_perf_event():
    from repro.net.simulator import MIN_COMPACT
    from repro.obs.bus import CaptureSink

    sim = Simulator()
    sink = CaptureSink()
    sim.bus.subscribe(sink, categories=["perf"])
    events = [sim.schedule(1.0 + i, lambda: None)
              for i in range(2 * MIN_COMPACT)]
    for event in events[:MIN_COMPACT + 1]:
        event.cancel()
    compactions = [e for e in sink.events if e.name == "heap_compaction"]
    assert compactions
    data = compactions[-1].data
    assert data["before"] > data["after"]


def test_pending_events_counts_train_entries():
    """Every delivery of a back-to-back burst is its own queued event."""
    sim = Simulator()
    for i in range(1, 9):
        sim.at(0.1 * i, lambda: None)
    sim.at(1.0, lambda: None)
    assert sim.pending_events == 9
    sim.run(until=0.45)
    assert sim.pending_events == 5
    sim.run()
    assert sim.pending_events == 0


def test_min_compact_is_per_instance():
    from repro.net.simulator import MIN_COMPACT

    # An aggressive threshold compacts after a handful of cancels...
    eager = Simulator(min_compact=4)
    assert eager.min_compact == 4
    events = [eager.schedule(1.0 + i, lambda: None) for i in range(10)]
    for event in events[:5]:
        event.cancel()
    assert eager.compactions >= 1

    # ...while the default instance keeps the module-level threshold
    # and stays untouched by the other instance's setting.
    lazy = Simulator()
    assert lazy.min_compact == MIN_COMPACT
    events = [lazy.schedule(1.0 + i, lambda: None) for i in range(10)]
    for event in events[:5]:
        event.cancel()
    assert lazy.compactions == 0


def test_compaction_inside_train_delivery_keeps_the_rest_of_the_train():
    """A delivery callback that triggers a heap compaction must not
    strand the burst's later deliveries (the PR 15 alias bug's shape:
    ``run`` holds the heap list across the callback)."""
    sim = Simulator(min_compact=4)
    fired = []

    def deliver(payload):
        fired.append(payload)
        if payload == "a":
            for event in [sim.schedule(5.0, fired.append, "timer")
                          for _ in range(8)]:
                event.cancel()

    sim.at(1.5, fired.append, "x")
    for time, payload in [(1.0, "a"), (2.0, "b"), (3.0, "c")]:
        sim.at(time, deliver, payload)
    sim.run()
    assert sim.compactions >= 1
    assert fired == ["a", "x", "b", "c"]
    assert sim.pending_events == 0


# -- stop() -----------------------------------------------------------------

def test_stop_ends_the_run_after_the_current_event():
    sim = Simulator()
    fired = []

    def last_useful():
        fired.append("done")
        sim.stop()
        fired.append("still-this-event")

    sim.at(1.0, last_useful)
    sim.at(1.0, fired.append, "same-time")
    sim.at(2.0, fired.append, "later")
    assert sim.run(until=60.0) == 1
    assert fired == ["done", "still-this-event"]
    assert sim.now == 1.0            # not dragged to ``until``
    assert sim.pending_events == 2
    # The next run starts clean and picks up what was left.
    sim.run()
    assert fired[2:] == ["same-time", "later"]
    assert sim.pending_events == 0


def test_stop_outside_a_run_does_nothing():
    sim = Simulator()
    fired = []
    sim.at(1.0, fired.append, "x")
    sim.stop()
    sim.run()
    assert fired == ["x"]


def test_stop_inside_a_train_delivery_parks_the_rest_of_the_train():
    sim = Simulator()
    fired = []

    def deliver(payload):
        fired.append(payload)
        if payload == 2:
            sim.stop()

    for i in range(1, 6):
        sim.at(0.1 * i, deliver, i)
    sim.at(1.0, fired.append, "solo")
    assert sim.pending_events == 6
    sim.run()
    assert fired == [1, 2]
    assert sim.now == pytest.approx(0.2)
    assert sim.pending_events == 4
    sim.run()
    assert fired == [1, 2, 3, 4, 5, "solo"]
    assert sim.pending_events == 0


def test_stop_on_the_last_train_delivery_leaves_nothing_behind():
    sim = Simulator()
    fired = []

    def deliver(payload):
        fired.append(payload)
        if payload == 3:
            sim.stop()

    for i in range(1, 4):
        sim.at(0.1 * i, deliver, i)
    sim.at(1.0, fired.append, "solo")
    sim.run()
    assert fired == [1, 2, 3]
    assert sim.pending_events == 1
    sim.run()
    assert fired == [1, 2, 3, "solo"]


def test_stop_ends_run_until():
    sim = Simulator()
    sim.at(0.5, sim.stop)
    sim.at(5.0, lambda: None)
    assert sim.run_until(lambda: False, timeout=10.0) is False
    assert sim.now == 0.5


# -- re-armable timers ------------------------------------------------------


def test_timer_fires_once_at_its_latest_deadline():
    sim = Simulator()
    fired = []
    timer = sim.timer(lambda: fired.append(sim.now))
    assert not timer.armed
    timer.arm(1.0)
    sim.run(until=0.5)
    timer.arm(1.0)          # later deadline: the queued entry is kept
    assert timer.armed and sim.pending_events == 1
    sim.run()
    assert fired == [1.5]
    assert not timer.armed and sim.pending_events == 0


def test_timer_rearmed_earlier_fires_at_the_earlier_deadline():
    sim = Simulator()
    fired = []
    timer = sim.timer(fired.append, "rto")
    timer.arm(5.0)
    timer.arm(1.0)          # earlier: needs its own heap entry
    assert sim.pending_events == 1
    sim.run(until=2.0)
    assert fired == ["rto"]
    sim.run()               # the superseded entry pops dead
    assert fired == ["rto"] and sim.pending_events == 0


def test_timer_cancel_and_rearm_reuses_the_queued_entry():
    sim = Simulator()
    fired = []
    timer = sim.timer(lambda: fired.append(sim.now))
    timer.arm(1.0)
    timer.cancel()
    timer.cancel()          # idempotent
    assert not timer.armed and sim.pending_events == 0
    timer.arm(2.0)
    assert sim.pending_events == 1 and len(sim._queue) == 1
    sim.run()
    assert fired == [2.0]


def test_timer_can_rearm_itself_from_its_callback():
    sim = Simulator()
    fired = []
    holder = {}

    def tick():
        fired.append(sim.now)
        if len(fired) < 3:
            holder["timer"].arm(0.5)

    holder["timer"] = sim.timer(tick)
    holder["timer"].arm(0.5)
    sim.run()
    assert fired == [0.5, 1.0, 1.5]


def test_timer_rejects_negative_delay():
    with pytest.raises(ValueError):
        Simulator().timer(lambda: None).arm(-0.1)


def test_timer_arm_at_fires_at_exactly_the_given_time():
    """``arm(when - now)`` would round; ``arm_at`` is ``Simulator.at``."""
    sim = Simulator()
    fired = []
    timer = sim.timer(lambda: fired.append(sim.now))
    sim.at(0.2, timer.arm_at, 0.9)
    sim.run()
    assert fired == [0.9] and 0.2 + (0.9 - 0.2) != 0.9
    with pytest.raises(ValueError):
        timer.arm_at(0.5)            # the clock reads 0.9


def test_stopped_timers_are_compacted_and_can_be_armed_again():
    sim = Simulator(min_compact=4)
    fired = []
    timers = [sim.timer(fired.append, i) for i in range(8)]
    for timer in timers:
        timer.arm(1.0)
    for timer in timers[:6]:
        timer.cancel()
    assert sim.compactions >= 1
    assert sim.pending_events == 2 and len(sim._queue) <= 4
    timers[0].arm(0.5)
    sim.run()
    assert fired == [0, 6, 7]
    assert sim.pending_events == 0


class _CancelAndSchedule:
    """The idiom Timer replaces, as the ordering oracle: cancel the
    pending event and schedule a new one."""

    def __init__(self, sim, fn, *args):
        self.sim, self.fn, self.args = sim, fn, args
        self.event = None

    def arm(self, delay):
        self.cancel()
        self.event = self.sim.schedule(delay, self._fire)

    def cancel(self):
        if self.event is not None:
            self.event.cancel()
            self.event = None

    def _fire(self):
        self.event = None
        self.fn(*self.args)


#: delays on a coarse grid so equal-time ties are common
_delay = st.integers(0, 6).map(lambda n: n * 0.25)
_timer_ops = st.lists(st.one_of(
    st.tuples(st.just("arm"), st.integers(0, 2), _delay),
    st.tuples(st.just("cancel"), st.integers(0, 2)),
    st.tuples(st.just("schedule"), _delay),
    st.tuples(st.just("advance"), _delay),
), max_size=60)


@settings(max_examples=300, deadline=None)
@given(_timer_ops, st.sampled_from([2, 64]))
def test_property_timer_matches_cancel_and_schedule(ops, min_compact):
    """Random arm/cancel/advance scripts over several timers, mixed
    with plain events, fire the same (time, label) sequence
    as cancel-and-reschedule -- ties included -- and ``pending_events``
    agrees after every step.  Timers also re-arm from callbacks."""

    def play(make_timer):
        sim = Simulator(min_compact=min_compact)
        log = []
        timers = []

        def expired(index):
            log.append((sim.now, "timer-%d" % index))
            if index == 0:
                timers[1].arm(0.25)   # a callback moving another timer

        timers.extend(make_timer(sim, expired, i) for i in range(3))
        for step, op in enumerate(ops):
            if op[0] == "arm":
                timers[op[1]].arm(op[2])
            elif op[0] == "cancel":
                timers[op[1]].cancel()
            elif op[0] == "schedule":
                sim.schedule(op[1], lambda s=step: log.append(
                    (sim.now, "event-%d" % s)))
            else:
                sim.run(until=sim.now + op[1])
            log.append(("pending", sim.pending_events))
        sim.run()
        log.append(("pending", sim.pending_events))
        return log

    assert play(lambda sim, fn, i: sim.timer(fn, i)) == \
        play(lambda sim, fn, i: _CancelAndSchedule(sim, fn, i))
