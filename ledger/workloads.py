"""The six benchmark workloads.

Each workload is a pair of functions: ``variants(seed, scale)`` makes
its inputs from the seed (the program sees only these), and
``run(variant, spans, observer)`` does one iteration -- builds the
scenario through the program's public API, runs it, checks the output
and returns the iteration's measurements.  ``observer`` is None except
in the traced iteration.  Why each workload exists is recorded in
``BENCHMARK.json`` and ``README.md``.

Sizes are the issue's full sizes times one shared constant, ``SCALE``:
the driver's time cap leaves ~12 s of measuring per run, and the
percentiles want a few dozen iterations in it.
"""

import contextlib
import hashlib
import json
import random

from env import add_src

add_src()

from repro.core import TcplsClient, TcplsServer  # noqa: E402
from repro.core.drivers import SocketDriver  # noqa: E402
from repro.core.engine import (  # noqa: E402
    TcplsClientEngine,
    TcplsServerEngine,
)
from repro.net import Simulator, build_faulty_multipath  # noqa: E402
from repro.net.address import Endpoint  # noqa: E402
from repro.perf import pageload  # noqa: E402
from repro.perf.loadgen import LoadgenHarness  # noqa: E402
from repro.tcp import TcpStack  # noqa: E402
from repro.workload import synthetic_page  # noqa: E402

SCALE = 0.5
#: inputs made from one seed; iterations cycle through them, so a run
#: times each several times and a recurring input must reproduce its
#: ``sim_digest``.  Four, not more: an input counts with its fastest
#: iteration, and on a machine that is slowed for seconds at a time it
#: takes several repeats for every input to be timed undisturbed once.
VARIANTS = 4
RECORD = 16384
PSK = b"ledger-psk"
HORIZON = 60.0


class CheckFailed(Exception):
    """An iteration's output was not what was sent or scripted."""


def check(condition, message, *args):
    if not condition:
        raise CheckFailed(message % args)


def _rng(seed, *salt):
    return random.Random("ledger/%d/%s" % (seed, "/".join(map(str, salt))))


def _digest(value):
    """Hash of one iteration's deterministic (simulated-time) outputs."""
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _records(nbytes):
    return -(-nbytes // RECORD)


# -- bulk_download / failover_blackhole --------------------------------

def _download_variants(full_size, blackhole):
    # a transfer cut short of 1 MiB is over before the path goes dark
    floor = 1 << 20 if blackhole else RECORD

    def variants(seed, scale):
        out = []
        for j in range(VARIANTS):
            rng = _rng(seed, "download", j)
            variant = {"sim_seed": rng.getrandbits(31),
                       "payload_seed": rng.getrandbits(31),
                       "size": max(floor, int(full_size * scale)),
                       "blackhole_at": None}
            if blackhole:
                # +-50 ms around 0.3 s, one draw per quarter of the
                # range: the replay cost moves ~2x across it, so every
                # run must cover it evenly to be comparable with the
                # next seed's.
                variant["blackhole_at"] = round(
                    0.25 + 0.1 * (j + rng.random()) / VARIANTS, 6)
            out.append(variant)
        return out
    return variants


def run_download(variant, spans, observer):
    """One TCPLS session over two simulated paths, record ACKs on; the
    server pushes ``size`` bytes on one stream in 16 KiB records."""
    size = variant["size"]
    with spans.span("setup"):
        payload = random.Random(variant["payload_seed"]).randbytes(size)
        sim = Simulator(seed=variant["sim_seed"])
        topo = build_faulty_multipath(sim, n_paths=2)
        if observer is not None:
            observer.watch_sim(sim, topo)
        server = TcplsServer(sim, TcpStack(sim, topo.server), 443, psk=PSK,
                             record_payload=RECORD)
        client = TcplsClient(sim, TcpStack(sim, topo.client), psk=PSK,
                             record_payload=RECORD)
        sessions = []
        received = hashlib.sha256()
        state = {"bytes": 0, "done_at": None}

        def on_session(session):
            sessions.append(session)
            session.enable_failover()

            def on_request(stream):
                if stream.recv().startswith(b"GET"):
                    out = session.create_stream(session.conns[0])
                    out.send(payload)
                    out.close()
            session.on_stream_data = on_request

        def on_client_data(stream):
            data = stream.recv()
            received.update(data)
            state["bytes"] += len(data)
            if state["bytes"] >= size and state["done_at"] is None:
                state["done_at"] = sim.now

        def on_ready(_session):
            client.set_user_timeout(client.conns[0], 0.25)
            client.create_stream(client.conns[0]).send(b"GET /file")

        server.on_session = on_session
        client.on_stream_data = on_client_data
        client.on_ready = on_ready
        if variant["blackhole_at"] is not None:
            topo.flap_path(0, at=variant["blackhole_at"])
    with spans.span("connect"):
        path = topo.path(0)
        client.connect(path.client_addr, Endpoint(path.server_addr, 443))
    with spans.span("transfer"):
        sim.run(until=HORIZON)
    with spans.span("teardown"):
        client.close()

    check(state["done_at"] is not None, "done_at is not set")
    check(state["bytes"] == size, "received %d of %d bytes",
          state["bytes"], size)
    check(received.digest() == hashlib.sha256(payload).digest(),
          "received bytes differ from the bytes sent")
    check(len(sessions) == 1, "%d server sessions", len(sessions))
    cstats, sstats = client.stats, sessions[0].stats
    if variant["blackhole_at"] is not None:
        check(cstats["failovers"] >= 1 and sstats["failovers"] >= 1,
              "no failover on one side (client %d, server %d)",
              cstats["failovers"], sstats["failovers"])
        check(sstats["records_replayed"] >= 1, "no record replayed")
    packets = sum(link.stats.tx_packets
                  for index in range(2) for link in topo.path_links(index))
    return {
        "payload_bytes": size,
        # a completed failover recovery, or a 16 KiB record delivered
        "ops": cstats["failovers"] if variant["blackhole_at"] is not None
        else _records(size),
        "sim_s": state["done_at"],
        "events_emitted": sim.bus.events_emitted,
        "digest": _digest([state["done_at"], state["bytes"], packets,
                           sorted(cstats.items()), sorted(sstats.items())]),
    }


# -- session_churn ------------------------------------------------------

def churn_variants(seed, scale):
    return [{"seed": _rng(seed, "churn", j).getrandbits(31),
             "sessions": max(8, int(160 * scale)),
             "failover_sessions": max(1, int(8 * scale))}
            for j in range(VARIANTS)]


def run_churn(variant, spans, observer):
    """psk_ke sessions through one MultiSessionServer: connect waves,
    MPJOINs, small transfers, UTO failovers, close/reconnect churn."""
    with spans.span("setup"):
        harness = LoadgenHarness(
            sessions=variant["sessions"],
            failover_sessions=variant["failover_sessions"],
            seed=variant["seed"])
        if observer is not None:
            observer.watch_sim(harness.sim, harness.topo)
    with spans.span("transfer"):
        metrics = harness.run()

    started = metrics["started"]
    check(started > 0 and metrics["ready"] == started
          and metrics["closed"] == started,
          "started %d, ready %d, closed %d", started, metrics["ready"],
          metrics["closed"])
    check(metrics["table_end"] == 0 and metrics["sessions_end"] == 0,
          "table_end %d, sessions_end %d", metrics["table_end"],
          metrics["sessions_end"])
    expected = (started * harness.transfer_bytes
                + harness.failover_sessions * harness.failover_bytes)
    check(metrics["bytes_delivered"] == expected,
          "delivered %d of %d bytes", metrics["bytes_delivered"], expected)
    check(metrics["failovers"] >= harness.failover_sessions,
          "%d failovers for %d failover sessions", metrics["failovers"],
          harness.failover_sessions)
    return {
        "payload_bytes": metrics["bytes_delivered"],
        "ops": started,
        "sim_s": harness.t_close,
        "events_emitted": harness.sim.bus.events_emitted,
        "digest": _digest(metrics),
    }


# -- pageload_mix -------------------------------------------------------

PAGELOAD_CELLS = (("tcpls", "predictive"), ("quic", "round-robin"),
                  ("mptcp", "lowest-rtt"))
PAGES = 3


#: Page-load seeds a run draws its inputs from.  About 2 % of seeds
#: stall the TCPLS cell under ``ge-light`` for good (seed 114223: 0 of
#: 18 objects ever complete) -- a defect of the program for a later
#: issue, and no input for a benchmark, whose operations must not fail.
#: These 64 completed every page on all three stacks with 3, 6 and 12
#: objects per page when the benchmark was written.
PAGELOAD_SEEDS = (
    260177, 959786, 23391, 603520, 111173, 969134, 301390, 885414,
    739188, 312253, 392627, 237828, 968166, 168594, 697846, 185261,
    640249, 237886, 1007434, 979434, 485589, 1012161, 183030, 657681,
    220193, 643167, 234537, 943053, 824967, 618399, 230430, 743136,
    626742, 845108, 677230, 19489, 56466, 242995, 154965, 713083,
    64778, 709531, 1025081, 807867, 589629, 402680, 406803, 319817,
    144648, 282436, 314519, 50970, 386200, 729006, 408069, 443607,
    993705, 1018892, 81937, 878814, 815951, 707988, 1025245, 775185,
)


def pageload_variants(seed, scale):
    """One seed from each quarter of the pool ranked by page weight:
    cost follows bytes (r = 0.95) and varies 2x across the pool, so
    like the blackhole time it is drawn stratified."""
    n_objects = max(3, int(12 * scale))

    def page_bytes(cell_seed):
        return sum(synthetic_page(seed=cell_seed + index,
                                  n_objects=n_objects).total_bytes
                   for index in range(PAGES))

    ranked = sorted(PAGELOAD_SEEDS, key=page_bytes)
    quarter = len(ranked) // VARIANTS
    rng = _rng(seed, "pageload")
    return [{"seed": rng.choice(ranked[j * quarter:(j + 1) * quarter]),
             "n_objects": n_objects} for j in range(VARIANTS)]


@contextlib.contextmanager
def _observed_cells(observer):
    """``run_pageload_cell`` returns a result dict and keeps its
    simulator to itself, so for the traced iteration only, the topology
    builder it calls is wrapped to hand both to the observer -- the one
    place the benchmark reaches past a public signature."""
    build = pageload.build_faulty_multipath

    def observed_build(sim, **kwargs):
        topo = build(sim, **kwargs)
        observer.watch_sim(sim, topo)
        return topo

    pageload.build_faulty_multipath = observed_build
    try:
        yield
    finally:
        pageload.build_faulty_multipath = build


def run_pageload(variant, spans, observer):
    """Three page-load cells, one per stack, under seeded burst loss."""
    results = []
    for stack, policy in PAGELOAD_CELLS:
        with spans.span("cell:%s/%s" % (stack, policy)):
            kwargs = dict(stack=stack, policy=policy, grid="ge-light",
                          pages=PAGES, waves=2,
                          n_objects=variant["n_objects"],
                          seed=variant["seed"], horizon=HORIZON)
            with (_observed_cells(observer) if observer is not None
                  else contextlib.nullcontext()):
                result = pageload.run_pageload_cell(**kwargs)
        check(result["pages_completed"] == result["pages"],
              "%s: %d of %d pages", stack, result["pages_completed"],
              result["pages"])
        check(result["objects_completed"] == result["objects"] > 0,
              "%s: %d of %d objects", stack, result["objects_completed"],
              result["objects"])
        results.append(result)
    return {
        "payload_bytes": sum(r["bytes"] for r in results),
        "ops": sum(r["objects_completed"] for r in results),
        # page-load goodput: what the pages weighed over how long they
        # took to load, in simulated time
        "sim_s": sum(sum(r["plt_samples"]) for r in results),
        "events_emitted": None,
        "digest": _digest(results),
    }


# -- loopback_aead / loopback_engine -------------------------------------

def _loopback_variants(transfers):
    def variants(seed, scale):
        return [{"seed": _rng(seed, "loopback", j).getrandbits(31),
                 "transfers": [(cipher, max(RECORD, int(size * scale)))
                               for cipher, size in transfers]}
                for j in range(VARIANTS)]
    return variants


def _loopback_upload(cipher, size, seed, spans, observer):
    """Fresh SocketDriver on 127.0.0.1, one psk_dhe_ke handshake, one
    client-to-server upload, close.  Returns (handshake s, transfer s,
    events emitted)."""
    payload = random.Random(seed).randbytes(size)
    driver = SocketDriver(name="ledger", seed=seed)
    try:
        with spans.span("setup"):
            if observer is not None:
                observer.watch_bus(driver.bus)
            sessions = []
            received = hashlib.sha256()
            state = {"bytes": 0}

            def on_session(session):
                sessions.append(session)

                def on_data(stream):
                    data = stream.recv()
                    received.update(data)
                    state["bytes"] += len(data)
                session.on_stream_data = on_data

            server = TcplsServerEngine(driver, 0, PSK, cipher_names=(cipher,))
            server.on_session = on_session
            client = TcplsClientEngine(driver, PSK, cipher_names=(cipher,))
            ready = []
            client.on_ready = ready.append
        with spans.span("handshake") as handshake:
            client.connect(None, driver.endpoint("127.0.0.1", server.port))
            driver.run_until(lambda: ready, timeout=30.0)
        negotiated = client.conns[0].tls.negotiated_cipher
        with spans.span("transfer") as transfer:
            stream = client.create_stream(client.conns[0])
            stream.send(payload)
            stream.close()
            driver.run_until(lambda: state["bytes"] >= size, timeout=60.0)
        with spans.span("teardown"):
            client.close()
    finally:
        driver.close()

    check(negotiated == cipher, "negotiated %s, asked for %s",
          negotiated, cipher)
    check(state["bytes"] == size, "received %d of %d bytes",
          state["bytes"], size)
    check(received.digest() == hashlib.sha256(payload).digest(),
          "received bytes differ from the bytes sent")
    check(client.stats["bytes_sealed"] >= size
          and sessions[0].stats["bytes_opened"] >= size,
          "sealed %d, opened %d of %d payload bytes",
          client.stats["bytes_sealed"], sessions[0].stats["bytes_opened"],
          size)
    return (handshake["t1"] - handshake["t0"],
            transfer["t1"] - transfer["t0"], driver.bus.events_emitted)


def run_loopback(variant, spans, observer):
    """Real kernel TCP through SocketDriver, one connection at a time,
    one thread.  The traffic crosses the host's loopback interface,
    not a link."""
    handshakes, transfer_s, events, total = [], 0.0, 0, 0
    for index, (cipher, size) in enumerate(variant["transfers"]):
        handshake, transfer, emitted = _loopback_upload(
            cipher, size, variant["seed"] + index, spans, observer)
        handshakes.append(handshake)
        transfer_s += transfer
        events += emitted
        total += size
    return {
        "payload_bytes": total,
        "ops": sum(_records(size) for _, size in variant["transfers"]),
        "transfer_s": transfer_s,
        "handshake_s": handshakes,
        "sim_s": None,
        "events_emitted": events,
        "digest": None,
    }


# -- registry -------------------------------------------------------------

#: name -> (variants, run)
WORKLOADS = {
    "bulk_download": (_download_variants(8 << 20, blackhole=False),
                      run_download),
    "failover_blackhole": (_download_variants(2 << 20, blackhole=True),
                           run_download),
    "session_churn": (churn_variants, run_churn),
    "pageload_mix": (pageload_variants, run_pageload),
    "loopback_aead": (_loopback_variants((("chacha20poly1305", 512 << 10),
                                          ("aes128gcm", 512 << 10))),
                      run_loopback),
    "loopback_engine": (_loopback_variants((("null-tag", 32 << 20),)),
                        run_loopback),
}
