"""Unit and property tests for the fluid fast-forward layer.

The solver (:func:`~repro.net.fluid.max_min_shares`) is a pure
function, so hypothesis can hammer it with random flow populations and
assert the water-filling invariants directly; the engine tests check
the closed-form leap against hand-computed completion times and fault
boundaries.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Simulator
from repro.net.faults import LinkFlap
from repro.net.fluid import (
    EPS,
    FluidCohort,
    FluidEngine,
    SLOW_START,
    STEADY,
    link_capacity_bps,
    link_next_change,
    max_min_shares,
)
from repro.net.link import Link

pytestmark = pytest.mark.fluid


def make_link(sim, rate_bps=8_000_000, delay=0.01, name="l"):
    return Link(sim, rate_bps=rate_bps, delay=delay, name=name)


# -- solver -------------------------------------------------------------


def test_equal_weights_split_bottleneck_evenly():
    shares = max_min_shares(
        [("a", ["L"], 1, 1.0, None), ("b", ["L"], 1, 1.0, None)],
        lambda link: 100.0)
    assert shares["a"] == pytest.approx(50.0)
    assert shares["b"] == pytest.approx(50.0)


def test_weights_bias_shares_proportionally():
    shares = max_min_shares(
        [("fast", ["L"], 1, 2.0, None), ("slow", ["L"], 1, 1.0, None)],
        lambda link: 90.0)
    assert shares["fast"] == pytest.approx(60.0)
    assert shares["slow"] == pytest.approx(30.0)


def test_cap_binds_and_leftover_goes_to_greedy_flows():
    shares = max_min_shares(
        [("capped", ["L"], 1, 1.0, 10.0), ("greedy", ["L"], 1, 1.0, None)],
        lambda link: 100.0)
    assert shares["capped"] == pytest.approx(10.0)
    assert shares["greedy"] == pytest.approx(90.0)


def test_cohort_size_scales_link_usage():
    # 9 flows vs 1 flow, same weight each: per-flow shares are equal,
    # so the big cohort takes 9x the link.
    shares = max_min_shares(
        [("big", ["L"], 9, 1.0, None), ("small", ["L"], 1, 1.0, None)],
        lambda link: 100.0)
    assert shares["big"] == pytest.approx(10.0)
    assert shares["small"] == pytest.approx(10.0)


def test_dead_link_flows_get_zero_and_free_the_rest():
    shares = max_min_shares(
        [("dead", ["L", "D"], 1, 1.0, None), ("live", ["L"], 1, 1.0, None)],
        lambda link: 0.0 if link == "D" else 100.0)
    assert shares["dead"] == 0.0
    assert shares["live"] == pytest.approx(100.0)


def test_classic_multi_bottleneck_max_min():
    # f1 crosses only A (cap 10 shared with f2); f2 crosses A and B;
    # f3 crosses only B (cap 30).  Max-min: f1 = f2 = 5 on A, then f3
    # soaks up B's residual 25.
    shares = max_min_shares(
        [("f1", ["A"], 1, 1.0, None),
         ("f2", ["A", "B"], 1, 1.0, None),
         ("f3", ["B"], 1, 1.0, None)],
        lambda link: 10.0 if link == "A" else 30.0)
    assert shares["f1"] == pytest.approx(5.0)
    assert shares["f2"] == pytest.approx(5.0)
    assert shares["f3"] == pytest.approx(25.0)


def test_uncapped_flows_on_infinite_links_are_unconstrained():
    shares = max_min_shares(
        [("inf", ["L"], 1, 1.0, None)], lambda link: float("inf"))
    assert shares["inf"] == float("inf")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_property_max_min_conservation_and_bottlenecks(data):
    """Random populations: no link over capacity, every flow limited
    by its cap or by a saturated link, all rates non-negative."""
    n_links = data.draw(st.integers(1, 5), label="n_links")
    capacities = {
        i: data.draw(st.floats(1.0, 1000.0), label="cap%d" % i)
        for i in range(n_links)
    }
    n_flows = data.draw(st.integers(1, 8), label="n_flows")
    entries = []
    for f in range(n_flows):
        links = data.draw(
            st.lists(st.integers(0, n_links - 1), min_size=1,
                     max_size=n_links, unique=True),
            label="links%d" % f)
        count = data.draw(st.integers(1, 50), label="n%d" % f)
        weight = data.draw(st.floats(0.1, 10.0), label="w%d" % f)
        cap = data.draw(st.one_of(st.none(), st.floats(0.1, 100.0)),
                        label="cap_f%d" % f)
        entries.append(("flow%d" % f, links, count, weight, cap))

    shares = max_min_shares(entries, lambda link: capacities[link])

    tol = 1e-6
    load = {i: 0.0 for i in range(n_links)}
    for key, links, count, weight, cap in entries:
        rate = shares[key]
        assert rate >= 0.0
        if cap is not None:
            assert rate <= cap + tol * max(1.0, cap)
        for link in links:
            load[link] += count * rate
    for link, used in load.items():
        assert used <= capacities[link] * (1.0 + 1e-5) + tol
    # Bottleneck property: every uncapped flow with rate below every
    # link's fair ceiling must cross at least one saturated link.
    for key, links, count, weight, cap in entries:
        rate = shares[key]
        if cap is not None and rate >= cap - tol * max(1.0, cap):
            continue
        assert any(load[link] >= capacities[link] * (1.0 - 1e-4)
                   for link in links), (
            "flow %s is limited by neither cap nor bottleneck" % key)


# -- link capacity / schedule views ------------------------------------


def test_link_capacity_respects_flap_windows_and_up_flag():
    sim = Simulator()
    link = make_link(sim)
    assert link_capacity_bps(link, 0.0) == 8_000_000.0
    flap = LinkFlap()
    link.add_fault(flap)
    flap.add_window(1.0, 2.0)
    assert link_capacity_bps(link, 1.5) == 0.0
    assert link_capacity_bps(link, 2.5) == 8_000_000.0
    assert link_next_change(link, 0.0) == 1.0
    assert link_next_change(link, 1.0) == 2.0
    assert link_next_change(link, 2.0) is None
    link.set_up(False)
    assert link_capacity_bps(link, 0.0) == 0.0


# -- engine -------------------------------------------------------------


def test_single_cohort_completes_at_analytic_time():
    sim = Simulator()
    link = make_link(sim, rate_bps=8_000_000)       # 1 MB/s
    engine = FluidEngine(sim)
    done = []
    cohort = FluidCohort([link], [500_000.0], rtt=0.02)
    cohort.on_all_done = lambda c: done.append(sim.now)
    engine.add_cohort(cohort)
    sim.run(until=10.0)
    assert done and done[0] == pytest.approx(0.5, rel=1e-6)
    assert engine.flows_completed == 1
    assert engine.leaps >= 1
    # The whole transfer was one leap: no per-packet event storm.
    assert engine.events <= 3
    assert link.stats.tx_bytes == pytest.approx(500_000, abs=2)


def test_cohort_completions_pop_in_size_order():
    sim = Simulator()
    link = make_link(sim, rate_bps=8_000_000)
    engine = FluidEngine(sim)
    completions = []
    cohort = FluidCohort([link], [100.0, 200.0, 200.0, 400.0], rtt=0.02)
    cohort.on_flow_complete = (
        lambda c, newly: completions.append((sim.now, newly)))
    engine.add_cohort(cohort)
    sim.run(until=10.0)
    assert sum(n for _, n in completions) == 4
    times = [t for t, _ in completions]
    assert times == sorted(times)
    assert cohort.done
    assert cohort.total_remaining() == 0.0


def test_two_cohorts_share_then_second_speeds_up():
    sim = Simulator()
    link = make_link(sim, rate_bps=8_000_000)       # 1 MB/s
    engine = FluidEngine(sim)
    done = {}
    a = FluidCohort([link], [100_000.0], rtt=0.02, label="a")
    b = FluidCohort([link], [200_000.0], rtt=0.02, label="b")
    a.on_all_done = lambda c: done.setdefault("a", sim.now)
    b.on_all_done = lambda c: done.setdefault("b", sim.now)
    engine.add_cohort(a)
    engine.add_cohort(b)
    sim.run(until=10.0)
    # Equal shares (500 KB/s each) until a finishes at 0.2s with b at
    # 100 KB served; b's remaining 100 KB then runs at full 1 MB/s.
    assert done["a"] == pytest.approx(0.2, rel=1e-6)
    assert done["b"] == pytest.approx(0.3, rel=1e-6)


def test_slow_start_doubles_until_cap_stops_binding():
    sim = Simulator()
    link = make_link(sim, rate_bps=80_000_000)      # 10 MB/s
    engine = FluidEngine(sim)
    cohort = FluidCohort([link], [10_000_000.0], rtt=0.1, cwnd=100_000.0)
    engine.add_cohort(cohort)
    assert cohort.phase == SLOW_START
    assert cohort.rate == pytest.approx(1_000_000.0)  # cwnd/rtt caps it
    sim.run(until=0.25)
    # Two doublings later the cap (4 MB/s) still binds...
    assert cohort.phase == SLOW_START
    assert cohort.rate == pytest.approx(4_000_000.0)
    sim.run(until=0.55)
    # ...until cwnd/rtt exceeds the link and the cohort exits to
    # steady state at the link rate.
    assert cohort.phase == STEADY
    assert cohort.rate == pytest.approx(10_000_000.0)
    assert cohort.next_double is None


def test_flap_window_stalls_and_resumes_with_slow_start_restart():
    sim = Simulator()
    link = make_link(sim, rate_bps=8_000_000)
    flap = LinkFlap()
    link.add_fault(flap)
    flap.add_window(0.1, 0.3)
    engine = FluidEngine(sim)
    stalls = []
    resumes = []
    cohort = FluidCohort([link], [1_000_000.0], rtt=0.02, cwnd=1e12)
    cohort.phase = STEADY       # pretend it converged long ago
    cohort.on_stall = lambda c: stalls.append(sim.now)
    cohort.on_resume = lambda c: resumes.append(sim.now)
    done = []
    cohort.on_all_done = lambda c: done.append(sim.now)
    engine.add_cohort(cohort)
    sim.run(until=10.0)
    assert stalls == [pytest.approx(0.1)]
    assert resumes == [pytest.approx(0.3)]
    # Only 0.1s of service before the outage: 100 KB served.  The
    # resume restarts slow start from the initial window, so completion
    # lands strictly after the no-loss-of-state bound (0.3 + 0.9/1.0)
    # but within a few RTTs of it.
    assert done and 1.2 < done[0] < 1.3
    assert engine.stalls == 1


def test_forced_flap_notifies_engine_immediately():
    sim = Simulator()
    link = make_link(sim, rate_bps=8_000_000)
    flap = LinkFlap()
    link.add_fault(flap)
    engine = FluidEngine(sim)
    cohort = FluidCohort([link], [10_000_000.0], rtt=0.02)
    engine.add_cohort(cohort)
    sim.schedule(0.25, flap.force, True)
    sim.run(until=0.5)
    assert cohort.stalled_at == pytest.approx(0.25)
    # Exactly 0.25s of full-rate service was booked before the cut.
    assert cohort.served == pytest.approx(250_000.0, rel=1e-6)
    sim.schedule(0.1, flap.force, False)
    sim.run(until=1.0)
    assert cohort.stalled_at is None
    assert cohort.rate > 0.0


def test_set_up_false_touches_engine():
    sim = Simulator()
    link = make_link(sim)
    engine = FluidEngine(sim)
    cohort = FluidCohort([link], [10_000_000.0], rtt=0.02)
    engine.add_cohort(cohort)
    sim.schedule(0.5, link.set_up, False)
    sim.run(until=1.0)
    assert cohort.stalled_at == pytest.approx(0.5)


def test_leap_counters_report_fast_forward_coverage():
    sim = Simulator()
    link = make_link(sim, rate_bps=8_000_000)
    engine = FluidEngine(sim)
    engine.add_cohort(FluidCohort([link], [1_000_000.0], rtt=0.02))
    sim.run(until=10.0)
    assert engine.leaps >= 1
    assert engine.leapt_time == pytest.approx(1.0, rel=1e-6)
