"""Fluid cohorts against the packet path: what the model leaves out.

The cohort model (``repro.net.fluid``) is what the six ``fluid/*``
matrix rows run, so it is checked directly against packet-level runs
of the same transfer on the same links, and every case states the
drift it measured (DESIGN.md section 8 carries the same four numbers):

* **steady state** -- n bulk flows share one 25 Mbit/s, 10 ms link.
  One flow agrees within 2 %.  Four flows do not: slow-start overshoot
  of the 2 x BDP drop-tail queue lands unevenly, one flow is left in
  congestion avoidance on a small window and runs alone once the others
  finish, while the model keeps the link saturated to the end.
* **failover shape** -- the fig8 download (TCPLS, blackhole at 0.3 s,
  UTO 0.25 s) against ``failover_storm``'s rule: stall, wait
  ``detect_delay``, restart the remainder in slow start on the other
  path.  The delay is computed from the mechanism, not fitted; what is
  left is the replay, which the model does not have.

In every case the model finishes *early*: it understates completion
time, never overstates it.
"""

import os
import sys

import pytest

BENCH_DIR = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                         "benchmarks")
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import common    # noqa: E402

from helpers import bulk_sender    # noqa: E402

from repro.net import (    # noqa: E402
    FluidCohort,
    FluidEngine,
    Simulator,
    build_faulty_multipath,
    build_multipath,
)
from repro.net.address import Endpoint    # noqa: E402
from repro.tcp import TcpStack    # noqa: E402

pytestmark = pytest.mark.fluid

MIB = 1 << 20
HORIZON = 40.0

#: one-way trips before the first data byte leaves the server, in RTTs:
#: SYN, SYN-ACK, ACK for plain TCP; the TLS flight and the GET on top
#: of that for the TCPLS download.
TCP_OPEN_RTTS = 1.5
TCPLS_OPEN_RTTS = 2.5

#: link bytes per TCP payload byte of a TCPLS stream: a 16384-byte
#: record payload carries 3 bytes of TCPLS framing and travels with a
#: 5-byte TLS header and a 16-byte tag.
TLS_FRAMING = (16384 + 5 + 16) / (16384 - 3)

#: the fig8 failover, from the outage to the first replayed byte: the
#: client's user timeout, one period of its UTO/4 check (worst-case
#: phase), and the join -- SYN, SYN-ACK, join ClientHello, ServerHello,
#: SYNC: five one-way trips.
FAULT_AT = 0.3
UTO = 0.25
UTO_CHECK_PERIOD = UTO / 4
JOIN_RTTS = 2.5


def detect_delay(rtt):
    return UTO + UTO_CHECK_PERIOD + JOIN_RTTS * rtt


def make_cohort(link, sizes, framing=1.0):
    """``sizes`` application bytes over ``link`` as TCP carries them:
    one MSS per MTU-sized packet, IW10, the default 1/rtt weight;
    ``framing`` is TCP payload bytes per application byte."""
    pkt = float(link.mtu)
    mss = pkt - 40.0
    return FluidCohort([link], sizes, rtt=2 * link.delay,
                       cwnd=10 * mss / framing,
                       overhead=framing * pkt / mss, pkt_bytes=pkt)


def drift(model, packet):
    """Relative completion-time error of the model; positive when the
    model finishes early."""
    return (packet - model) / packet


# -- (i) steady state: n cohort flows vs n plain TCP flows -----------------

def packet_flows(n, size):
    sim = Simulator(seed=8)
    topo = build_multipath(sim, n_paths=1)
    path = topo.path(0)
    cstack = TcpStack(sim, topo.client)
    sstack = TcpStack(sim, topo.server)
    payload = b"F" * size
    sstack.listen(443, lambda conn: bulk_sender(conn, payload))
    done = []
    for _ in range(n):
        conn = cstack.connect(path.client_addr,
                              Endpoint(path.server_addr, 443))
        got = [0]

        def on_data(c, got=got):
            got[0] += len(c.recv())
            if got[0] == size:
                done.append(sim.now)
        conn.on_data = on_data
    sim.run(until=HORIZON)
    assert len(done) == n
    return max(done), path.s2c.stats.tx_bytes


def cohort_flows(n, size):
    sim = Simulator(seed=8)
    link = build_multipath(sim, n_paths=1).path(0).s2c
    engine = FluidEngine(sim)
    cohort = make_cohort(link, [size] * n)
    done = []
    cohort.on_all_done = lambda _c: done.append(sim.now)
    sim.schedule(TCP_OPEN_RTTS * cohort.rtt, engine.add_cohort, cohort)
    sim.run(until=HORIZON)
    return done[0], link.stats.tx_bytes


def test_one_flow_steady_state_within_two_percent():
    packet, packet_bytes = packet_flows(1, 4 * MIB)
    model, model_bytes = cohort_flows(1, 4 * MIB)
    # Measured: 1.435 s vs 1.447 s (0.8 %); 4,309,216 vs 4,309,268
    # link bytes.
    assert 0.0 <= drift(model, packet) <= 0.02, (model, packet)
    assert model_bytes == pytest.approx(packet_bytes, rel=1e-3)


def test_four_flows_model_misses_the_slow_start_straggler():
    packet, packet_bytes = packet_flows(4, 2 * MIB)
    model, model_bytes = cohort_flows(4, 2 * MIB)
    # Measured: 2.789 s vs 3.287 s (15.2 %).  Three packet flows finish
    # by 2.47 s; the fourth retransmitted 30 segments (the others 2, 2
    # and 17) and ends at 3.29 s, the link 84 % used over the run.
    # Bound: the measured figure plus two points.
    assert 0.10 <= drift(model, packet) <= 0.17, (model, packet)
    # Both sides carried the same bytes (retransmissions are 0.07 %).
    assert model_bytes == pytest.approx(packet_bytes, rel=5e-3)


# -- (ii) failover shape: fig8 download vs the failover_storm rule ---------

def s2c_bytes(topo):
    return [path.s2c.stats.tx_bytes for path in topo.paths]


def packet_download(size, faulted):
    sim = Simulator(seed=8)
    topo = build_faulty_multipath(sim, n_paths=2)
    _client, _sessions, probe, done = common.build_tcpls_download(
        sim, topo, size, uto=UTO)
    if faulted:
        topo.flap_path(0, at=FAULT_AT)
    sim.run(until=HORIZON)
    assert probe.total == size
    return done[0], s2c_bytes(topo)


def cohort_download(size, faulted):
    sim = Simulator(seed=8)
    topo = build_faulty_multipath(sim, n_paths=2)
    if faulted:
        topo.flap_path(0, at=FAULT_AT)
    engine = FluidEngine(sim)
    done = []

    def start(link, nbytes):
        cohort = make_cohort(link, [nbytes], framing=TLS_FRAMING)
        cohort.on_all_done = lambda _c: done.append(sim.now)
        cohort.on_stall = lambda c: sim.schedule(
            detect_delay(c.rtt), migrate, c)
        engine.add_cohort(cohort)

    def migrate(cohort):
        # failover_storm's rule: the remainder restarts from the initial
        # window on the other path.
        engine.remove_cohort(cohort)
        start(topo.path(1).s2c, cohort.sizes[0] - cohort.served)

    first = topo.path(0).s2c
    sim.schedule(TCPLS_OPEN_RTTS * 2 * first.delay, start, first, size)
    sim.run(until=HORIZON)
    return done[0], s2c_bytes(topo)


def test_download_without_fault_within_two_percent():
    packet, packet_bytes = packet_download(4 * MIB, faulted=False)
    model, model_bytes = cohort_download(4 * MIB, faulted=False)
    # Measured: 1.457 s vs 1.470 s (0.8 %).
    assert 0.0 <= drift(model, packet) <= 0.02, (model, packet)
    assert packet_bytes[1] == model_bytes[1] == 0
    assert model_bytes[0] == pytest.approx(packet_bytes[0], rel=1e-3)


def test_blackhole_failover_model_misses_the_replay():
    assert detect_delay(rtt=0.020) == pytest.approx(0.3625)
    packet, packet_bytes = packet_download(4 * MIB, faulted=True)
    model, model_bytes = cohort_download(4 * MIB, faulted=True)
    # Measured: 1.846 s vs 2.048 s (9.9 %).  The computed delay is
    # close (the packet run's first replayed byte leaves 0.353 s after
    # the outage).  The rest is the replay: the session re-sends every
    # record not yet acknowledged at the TCPLS layer, where the model
    # resumes from the last byte served -- 4,240,912 vs 3,616,779 link
    # bytes on the second path, 0.20 s at line rate.
    assert 0.05 <= drift(model, packet) <= 0.12, (model, packet)
    assert packet_bytes[1] - model_bytes[1] > 500_000
