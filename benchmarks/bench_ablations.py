"""Ablations of TCPLS design choices called out in DESIGN.md.

- end-of-record control framing vs a header-first layout (the zero-copy
  argument of Sec. 3.1);
- tag-trial demultiplexing cost under adversarial stream interleaving
  (footnote 2's worst case);
- the failover ACK-interval trade-off (the paper's stated future work),
  measured live rather than only in the cost model;
- record schedulers on asymmetric paths (the paper ships round-robin
  and leaves others to the application).
"""

from conftest import run_once

from common import PSK, banner, build_tcpls_group_upload, scaled
from repro.core import TcplsClient, TcplsServer
from repro.core.engine.policy import LowestRttScheduler, RoundRobinScheduler
from repro.net import Simulator, build_multipath
from repro.net.address import Endpoint
from repro.tcp import TcpStack


# ---------------------------------------------------------------------------
# Framing ablation
# ---------------------------------------------------------------------------

def test_ablation_end_of_record_framing(benchmark):
    """End-of-record control lets a receiver keep the payload as the
    buffer prefix (truncate); header-first framing forces a payload
    move.  Measure both receive paths over 2,000 records."""
    from repro.core.record import decode_inner, encode_inner
    from repro.core.record import RECORD_TYPE_STREAM_DATA

    payload = b"\x99" * 16384
    control = b"\x01" + b"\x00" * 8
    tail_framed = encode_inner(RECORD_TYPE_STREAM_DATA, payload, control)
    head_framed = bytes([RECORD_TYPE_STREAM_DATA, len(control)]) + \
        control + payload

    def receive_tail_framing():
        total = 0
        for _ in range(2000):
            # Payload is the buffer prefix: a memoryview, zero bytes moved.
            record = decode_inner(tail_framed, zero_copy=True)
            total += len(record.payload)
        return total

    def receive_head_framing():
        from repro.core.record import TcplsRecord

        total = 0
        for _ in range(2000):
            record_type = head_framed[0]
            control_len = head_framed[1]
            control = bytes(head_framed[2:2 + control_len])
            # Payload sits *after* the header: delivering a contiguous
            # buffer requires copying it to the front (the memmove the
            # end-of-record layout avoids).
            moved = bytes(head_framed[2 + control_len:])
            record = TcplsRecord(record_type, moved, control)
            total += len(record.payload)
        return total

    import time

    start = time.perf_counter()
    receive_head_framing()
    head_cost = time.perf_counter() - start
    total = run_once(benchmark, receive_tail_framing)
    assert total == 2000 * 16384
    start = time.perf_counter()
    receive_tail_framing()
    tail_cost = time.perf_counter() - start
    print("\nframing ablation: end-of-record (zero-copy) %.2f ms vs "
          "header-first (memmove) %.2f ms per 2000 x 16 KiB records"
          % (tail_cost * 1e3, head_cost * 1e3))
    # End-of-record framing delivers without moving the payload.
    assert tail_cost < head_cost


# ---------------------------------------------------------------------------
# Demux interleaving (footnote 2)
# ---------------------------------------------------------------------------

def run_interleaving(n_streams, interleave):
    sim = Simulator(seed=21)
    topo = build_multipath(sim, n_paths=1, families=[4])
    cstack, sstack = TcpStack(sim, topo.client), TcpStack(sim, topo.server)
    server = TcplsServer(sim, sstack, 443, psk=PSK)
    sessions = []
    server.on_session = lambda s: (
        sessions.append(s), setattr(s, "on_stream_data", lambda st: st.recv())
    )
    client = TcplsClient(sim, cstack, psk=PSK)
    p = topo.path(0)
    client.connect(p.client_addr, Endpoint(p.server_addr, 443))
    sim.run(until=0.2)
    streams = [client.create_stream(client.conns[0])
               for _ in range(n_streams)]
    chunk = 4000
    rounds = 60
    if interleave:
        for _ in range(rounds):
            for stream in streams:
                stream.send(b"i" * chunk)
    else:
        for stream in streams:
            stream.send(b"s" * (chunk * rounds))
    sim.run(until=20)
    stats = sessions[0].stats
    return stats["tag_trials"] / max(stats["records_received"], 1)


def test_ablation_demux_interleaving(benchmark):
    """Sequential stream scheduling costs ~1 trial/record; adversarial
    per-record interleaving of N streams costs extra trials -- the cost
    footnote 2 proposes explicit signalling to remove."""

    def run():
        return {
            ("sequential", 4): run_interleaving(4, interleave=False),
            ("interleaved", 4): run_interleaving(4, interleave=True),
            ("interleaved", 8): run_interleaving(8, interleave=True),
        }

    results = run_once(benchmark, run)
    print(banner("demux ablation -- tag trials per record"))
    for (mode, n), trials in results.items():
        print("%-12s %d streams: %.2f trials/record" % (mode, n, trials))
    assert results[("sequential", 4)] < 1.5
    assert results[("interleaved", 4)] > results[("sequential", 4)]
    # More interleaved streams, more trials (bounded well below window).
    assert results[("interleaved", 8)] >= results[("interleaved", 4)] * 0.8


# ---------------------------------------------------------------------------
# ACK interval (live)
# ---------------------------------------------------------------------------

def run_ack_interval(interval):
    sim = Simulator(seed=22)
    topo = build_multipath(sim, n_paths=1, families=[4])
    cstack, sstack = TcpStack(sim, topo.client), TcpStack(sim, topo.server)
    server = TcplsServer(sim, sstack, 443, psk=PSK, ack_interval=interval)
    sessions = []
    done = []
    size = scaled(8 << 20)

    def on_session(sess):
        sessions.append(sess)
        sess.enable_failover()
        state = {"got": 0}

        def on_stream_data(stream):
            state["got"] += len(stream.recv())
            if state["got"] >= size and not done:
                done.append(sim.now)
        sess.on_stream_data = on_stream_data

    server.on_session = on_session
    client = TcplsClient(sim, cstack, psk=PSK, ack_interval=interval)
    p = topo.path(0)

    def on_ready(_s):
        stream = client.create_stream(client.conns[0])
        stream.send(b"a" * size)
        stream.close()

    client.on_ready = on_ready
    client.connect(p.client_addr, Endpoint(p.server_addr, 443))
    sim.run(until=60)
    assert done
    return done[0], sessions[0].stats["acks_sent"]


def test_ablation_failover_ack_interval(benchmark):
    """The paper defaults to one record ACK per 16 records and leaves
    the optimal frequency as future work; sweep it live."""

    def sweep():
        return {interval: run_ack_interval(interval)
                for interval in (2, 16, 64)}

    results = run_once(benchmark, sweep)
    print(banner("failover ACK-interval ablation (8 MiB transfer)"))
    for interval, (finish, acks) in results.items():
        print("every %2d records: %4d ACK records, done %.2fs"
              % (interval, acks, finish))
    # ACK volume scales inversely with the interval...
    assert results[2][1] > results[16][1] > results[64][1]
    # ...while completion time barely moves on an uncongested path.
    times = [finish for finish, _acks in results.values()]
    assert max(times) - min(times) < 0.5


# ---------------------------------------------------------------------------
# Schedulers on asymmetric paths
# ---------------------------------------------------------------------------

def run_scheduler(scheduler_factory):
    sim = Simulator(seed=23)
    topo = build_multipath(sim, n_paths=2,
                           rates=[25_000_000, 25_000_000],
                           delays=[0.005, 0.050])  # 10 ms vs 100 ms RTT
    _client, _sessions, _probe, done = build_tcpls_group_upload(
        sim, topo, scaled(8 << 20), n_paths=2, scheduler=scheduler_factory())
    sim.run(until=60)
    return done[0] if done else None


def test_ablation_schedulers(benchmark):
    """Round-robin vs lowest-RTT over one fast and one slow path: the
    RTT-aware policy finishes no later, usually earlier."""

    def sweep():
        return {
            "round-robin": run_scheduler(RoundRobinScheduler),
            "lowest-rtt": run_scheduler(LowestRttScheduler),
        }

    results = run_once(benchmark, sweep)
    print(banner("scheduler ablation (10 ms vs 100 ms RTT paths)"))
    for name, finish in results.items():
        print("%-12s done %.2fs" % (name, finish))
    assert results["round-robin"] is not None
    assert results["lowest-rtt"] is not None
    assert results["lowest-rtt"] <= results["round-robin"] * 1.1
