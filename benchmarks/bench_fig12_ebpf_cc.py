"""Fig. 12: exchanging an eBPF congestion controller mid-session.

Two TCPLS upload sessions share a 100 Mbps, 20 ms RTT bottleneck
(the paper's experiment uses 60 ms and sweeps 10-100 ms; our Vegas
dynamics scale with RTT, so the shorter RTT keeps the three phases
inside a tractable horizon).  Session 1 starts with Vegas and owns the
link; session 2 starts with CUBIC at t=8 s and starves the Vegas
session (loss-based vs delay-based).  At t=20 s the server ships CUBIC
*bytecode* to session 1, which verifies and attaches it -- the
bandwidth split becomes fair.
"""

from conftest import run_once

from common import PSK, GoodputProbe, banner, fmt_series
from repro.core import TcplsClient, TcplsServer
from repro.ebpf.programs import cubic_bytecode
from repro.net import Simulator
from repro.net.address import IPAddress
from repro.net.host import Host
from repro.net.link import duplex_link
from repro.net.topology import MultipathTopology, PathInfo
from repro.tcp import TcpStack

RATE = 100_000_000
SECOND_FLOW_AT = 8.0
ATTACH_AT = 20.0
HORIZON = 45.0


def shared_bottleneck(sim, delay):
    """Client and server joined by ONE link both sessions share.

    The queue is one bandwidth-delay product: deep enough that the
    loss-based flow maintains a standing queue, the regime where the
    RTT inflation drives Vegas's window down while CUBIC keeps growing
    (the starvation the paper shows).
    """
    client = Host(sim, "client")
    server = Host(sim, "server")
    c_addr, s_addr = IPAddress("10.0.0.1"), IPAddress("10.0.0.2")
    queue = max(int(RATE / 8 * (2 * delay) * 0.5), 40 * 1500)
    c2s, s2c = duplex_link(sim, client, server, rate_bps=RATE,
                           delay=delay, queue_bytes=queue,
                           name="bottleneck")
    for link in (c2s, s2c):
        link.jitter = 0.0005  # break drop-tail phase lockout
    ci = client.add_interface("c0", c_addr, tx_link=c2s)
    si = server.add_interface("s0", s_addr, tx_link=s2c)
    client.add_route(s_addr, ci)
    server.add_route(c_addr, si)
    path = PathInfo(0, 4, c_addr, s_addr, c2s, s2c)
    return MultipathTopology(sim, client, server, [path])


def run_fig12(delay=0.010):
    sim = Simulator(seed=12)
    topo = shared_bottleneck(sim, delay)
    cstack = TcpStack(sim, topo.client)
    sstack = TcpStack(sim, topo.server)
    server = TcplsServer(sim, sstack, 443, psk=PSK)
    sessions = []
    probes = {}

    def on_session(sess):
        index = len(sessions)
        sessions.append(sess)
        probe = probes[index]
        sess.on_stream_data = (
            lambda stream: probe.account(len(stream.recv())))

    server.on_session = on_session
    from repro.net.address import Endpoint

    def start_flow(index, cc):
        probes[index] = GoodputProbe(sim)
        client = TcplsClient(sim, cstack, psk=PSK)

        def on_ready(_s):
            client.conns[0].tcp.cc = __import__(
                "repro.tcp.congestion", fromlist=["make_congestion_control"]
            ).make_congestion_control(cc, client.conns[0].tcp.mss)
            stream = client.create_stream(client.conns[0])
            stream.send(b"x" * (1 << 30))  # effectively unbounded

        client.on_ready = on_ready
        client.connect(topo.path(0).client_addr,
                       Endpoint(topo.path(0).server_addr, 443))
        return client

    flow_vegas = start_flow(0, "vegas")
    sim.at(SECOND_FLOW_AT, start_flow, 1, "cubic")

    def attach_cubic():
        # The SERVER sends the bytecode; the Vegas client attaches it.
        sessions[0].send_ebpf_program(sessions[0].conns[0],
                                      cubic_bytecode(), program_id=1)

    sim.at(ATTACH_AT, attach_cubic)
    attached = []
    flow_vegas.on_ebpf_attached = lambda c, p: attached.append(sim.now)
    sim.run(until=HORIZON)
    return probes[0].series(), probes[1].series(), attached


def mean(series, start, end):
    values = [v for t, v in series if start <= t < end]
    return sum(values) / len(values) if values else 0.0


def test_fig12_ebpf_cc_attachment(benchmark):
    vegas_series, cubic_series, attached = run_once(benchmark, run_fig12)
    print(banner("Fig. 12 -- eBPF congestion controller exchanged "
                 "mid-session (100 Mbps, 20 ms RTT)"))
    print("flow1 (vegas->ebpf-cubic): " + fmt_series(vegas_series, 8))
    print("flow2 (native cubic):      " + fmt_series(cubic_series, 8))
    assert attached, "bytecode never attached"
    print("bytecode attached at t=%.2fs" % attached[0])

    solo = mean(vegas_series, SECOND_FLOW_AT - 6, SECOND_FLOW_AT)
    vegas_starved = mean(vegas_series, ATTACH_AT - 6, ATTACH_AT)
    cubic_phase1 = mean(cubic_series, ATTACH_AT - 6, ATTACH_AT)
    vegas_after = mean(vegas_series, ATTACH_AT + 12, HORIZON)
    cubic_after = mean(cubic_series, ATTACH_AT + 12, HORIZON)
    print("solo=%.1f | starved: vegas=%.1f cubic=%.1f | "
          "after attach: flow1=%.1f flow2=%.1f" % (
              solo, vegas_starved, cubic_phase1, vegas_after, cubic_after))

    # Alone, Vegas climbs to most of the link (its post-loss ramp is
    # one MSS per RTT, the documented Vegas behaviour).
    assert solo > 0.75 * RATE / 1e6
    # CUBIC starves Vegas (paper: "quickly results in an unfair
    # distribution of the bandwidth").
    assert cubic_phase1 > 1.3 * vegas_starved
    before = max(vegas_starved, cubic_phase1) / max(
        min(vegas_starved, cubic_phase1), 0.1)
    assert before > 1.5
    # After the eBPF CUBIC attaches, both flows run the same algorithm
    # and the split converges toward fairness.
    after = max(vegas_after, cubic_after) / max(
        min(vegas_after, cubic_after), 0.1)
    assert after < before
    assert after < 1.8
    # And the link stays ~fully used.
    assert vegas_after + cubic_after > 0.75 * RATE / 1e6


def test_fig12_delay_sweep(benchmark):
    """Paper: 'same experiment using different delays, 10 ms to 100 ms,
    similar results'."""

    def sweep():
        results = {}
        for delay in (0.005, 0.025):  # RTT 10 ms and 50 ms
            vegas_series, cubic_series, attached = run_fig12(delay)
            vegas_after = mean(vegas_series, ATTACH_AT + 12, HORIZON)
            cubic_after = mean(cubic_series, ATTACH_AT + 12, HORIZON)
            results[delay] = (vegas_after, cubic_after, bool(attached))
        return results

    results = run_once(benchmark, sweep)
    print(banner("Fig. 12 sweep -- fairness after attach vs RTT"))
    for delay, (vegas_after, cubic_after, attached) in results.items():
        ratio = vegas_after / cubic_after if cubic_after else 0
        print("RTT %3.0fms: flow1=%.1f flow2=%.1f ratio=%.2f" % (
            delay * 2000, vegas_after, cubic_after, ratio))
        assert attached
        assert 0.35 < ratio < 2.9
