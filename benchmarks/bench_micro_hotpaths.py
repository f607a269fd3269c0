"""Micro-benchmarks of the real Python hot paths.

These time actual library code (not the cost model): record sealing and
opening, the Fig. 2 IV derivation, tag-trial demultiplexing, the
reordering heap, the SACK scoreboard, and eBPF VM dispatch.
"""

import random

import pytest

from repro.core.crypto_context import (
    StreamCryptoContext,
    derive_stream_iv,
    prepare_record,
    record_nonce,
)
from repro.core.record import decode_inner, encode_inner
from repro.core.drivers import bootstrap_ready_session
from repro.core.record import RECORD_TYPE_STREAM_DATA
from repro.core.reorder import ReorderBuffer
from repro.crypto.aead import Aes128Gcm, Chacha20Poly1305, NullTagCipher
from repro.crypto.aes import Aes128
from repro.crypto.chacha20 import chacha20_encrypt
from repro.crypto.ffdhe import FFDHE2048
from repro.crypto.gcm import Ghash
from repro.crypto.poly1305 import poly1305_mac, poly1305_macs
from repro.ebpf import EbpfVm, assemble
from repro.ebpf.cc_hooks import EbpfCongestionControl
from repro.ebpf.programs import cubic_bytecode
from repro.net import Packet, Simulator, build_multipath
from repro.net.address import Endpoint
from repro.tcp import TcpStack
from repro.tcp.buffers import ReceiveBuffer, SendBuffer
from repro.tcp.connection import FLAGS_ACK
from repro.tcp.ranges import RangeSet
from repro.tcp.segment import Segment

PAYLOAD = b"\xAB" * 16384
BASE_IV = bytes(range(12))
NONCE = b"\x00" * 12


def test_record_frame_encode(benchmark):
    result = benchmark(encode_inner, RECORD_TYPE_STREAM_DATA, PAYLOAD,
                       b"\x01")
    assert len(result) == len(PAYLOAD) + 3


def test_record_frame_decode(benchmark):
    inner = encode_inner(RECORD_TYPE_STREAM_DATA, PAYLOAD, b"\x01")
    record = benchmark(decode_inner, inner)
    assert record.payload == PAYLOAD


def test_stream_seal_null_cipher(benchmark):
    ctx = StreamCryptoContext(NullTagCipher(b"k" * 32), BASE_IV, 1)
    inner = encode_inner(RECORD_TYPE_STREAM_DATA, PAYLOAD)

    def seal():
        ctx.send_seq = 0
        return ctx.seal(inner)

    wire = benchmark(seal)
    assert len(wire) == len(inner) + 16 + 5


def test_stream_open_null_cipher(benchmark):
    tx = StreamCryptoContext(NullTagCipher(b"k" * 32), BASE_IV, 1)
    rx = StreamCryptoContext(NullTagCipher(b"k" * 32), BASE_IV, 1)
    inner = encode_inner(RECORD_TYPE_STREAM_DATA, PAYLOAD)
    wire = tx.seal(inner)
    out = benchmark(rx.open_at, wire, 0)
    assert out == inner


def test_chacha20poly1305_seal_1500(benchmark):
    """The real cipher on a packet-sized record (pure Python; the
    SWAR-batched keystream makes these usable at simulator scale)."""
    cipher = Chacha20Poly1305(b"K" * 32)
    sealed = benchmark(cipher.seal, NONCE, b"z" * 1500, b"hdr")
    assert len(sealed) == 1516


def test_chacha20poly1305_open_1500(benchmark):
    cipher = Chacha20Poly1305(b"K" * 32)
    sealed = cipher.seal(NONCE, b"z" * 1500, b"hdr")
    assert benchmark(cipher.open, NONCE, sealed, b"hdr") == b"z" * 1500


def test_chacha20poly1305_seal_16k(benchmark):
    cipher = Chacha20Poly1305(b"K" * 32)
    sealed = benchmark(cipher.seal, NONCE, PAYLOAD, b"hdr")
    assert len(sealed) == len(PAYLOAD) + 16


def test_chacha20poly1305_open_16k(benchmark):
    cipher = Chacha20Poly1305(b"K" * 32)
    sealed = cipher.seal(NONCE, PAYLOAD, b"hdr")
    assert benchmark(cipher.open, NONCE, sealed, b"hdr") == PAYLOAD


def test_aes128gcm_seal_1500(benchmark):
    cipher = Aes128Gcm(b"K" * 16)
    sealed = benchmark(cipher.seal, NONCE, b"z" * 1500, b"hdr")
    assert len(sealed) == 1516


def test_aes128gcm_open_1500(benchmark):
    cipher = Aes128Gcm(b"K" * 16)
    sealed = cipher.seal(NONCE, b"z" * 1500, b"hdr")
    assert benchmark(cipher.open, NONCE, sealed, b"hdr") == b"z" * 1500


def test_aes128gcm_seal_16k(benchmark):
    cipher = Aes128Gcm(b"K" * 16)
    sealed = benchmark(cipher.seal, NONCE, PAYLOAD, b"hdr")
    assert len(sealed) == len(PAYLOAD) + 16


def test_aes128gcm_open_16k(benchmark):
    cipher = Aes128Gcm(b"K" * 16)
    sealed = cipher.seal(NONCE, PAYLOAD, b"hdr")
    assert benchmark(cipher.open, NONCE, sealed, b"hdr") == PAYLOAD


def test_null_tag_seal_16k(benchmark):
    """The simulator's cipher: one hash pass over the record and a
    copy (the pairs above are the real AEADs on the same record)."""
    cipher = NullTagCipher(b"k" * 32)
    sealed = benchmark(cipher.seal, NONCE, PAYLOAD, b"hdr")
    assert len(sealed) == len(PAYLOAD) + 16


def test_null_tag_open_16k(benchmark):
    cipher = NullTagCipher(b"k" * 32)
    sealed = cipher.seal(NONCE, PAYLOAD, b"hdr")
    assert benchmark(cipher.open, NONCE, sealed, b"hdr") == PAYLOAD


BATCH_KEYS = {
    "chacha20poly1305": {},
    "aes128gcm": {"key": b"\x11" * 16, "peer_key": b"\x33" * 16},
}


@pytest.mark.parametrize("cipher", sorted(BATCH_KEYS))
def test_seal_many_8x16k(benchmark, cipher):
    """What the pump hands the record layer per writable event: eight
    full records, their keystreams and tag keys from one lane pass."""
    client, conn = bootstrap_ready_session(cipher_name=cipher,
                                           **BATCH_KEYS[cipher])
    ctx = client.create_stream(conn).ctx_send
    inners = [encode_inner(RECORD_TYPE_STREAM_DATA, PAYLOAD[:16382], b"\x00")
              for _ in range(8)]
    wires = benchmark(ctx.seal_many, inners)
    assert [len(wire) for wire in wires] == [16384 + 1 + 16 + 5] * 8


@pytest.mark.parametrize("cipher", sorted(BATCH_KEYS))
def test_open_batch_8x16k(benchmark, cipher):
    """One read of a STREAM_ATTACH and eight full records through the
    engine: the first data record is opened on its own, the seven after
    it with pads guessed in one lane pass."""
    client, conn = bootstrap_ready_session(cipher_name=cipher,
                                           **BATCH_KEYS[cipher])
    client.create_stream(conn).send(PAYLOAD[:16382] * 8)
    wire = conn.tcp.take_sent()

    def receiver():
        server, sconn = bootstrap_ready_session(
            is_client=False, cipher_name=cipher, **BATCH_KEYS[cipher])
        # a connection past its first record: GHASH tables built
        server._recv_key.mac_state(PAYLOAD, b"")
        return (server, sconn), {}

    def read(server, sconn):
        server.bytes_received(sconn, wire)
        return server.stats["bytes_opened"]

    opened = benchmark.pedantic(read, setup=receiver, rounds=25,
                                warmup_rounds=2)
    assert opened > 8 * 16382


def test_ghash_digest_16k(benchmark):
    ghash = Ghash(Aes128(b"K" * 16).encrypt_block(b"\x00" * 16))
    tag = benchmark(ghash.digest, b"hdr", PAYLOAD)
    assert len(tag) == 16


def test_ghash_digests_8x16k(benchmark):
    """Eight records' GHASH in one lane pass: what a sealed run or a
    read of eight full records costs its key."""
    ghash = Ghash(Aes128(b"K" * 16).encrypt_block(b"\x00" * 16))
    tags = benchmark(ghash.digests, [b"hdr"] * 8, [PAYLOAD] * 8)
    assert len(tags) == 8


def test_aes128gcm_cold_key_digest_16k(benchmark):
    """A new key and its first full record's GHASH: the key schedule,
    H and the lane tables of H ... H^64, then the digest (a connection
    pays it once per direction)."""
    keys = iter(range(1 << 30))

    def cold():
        key = next(keys).to_bytes(16, "big")
        return Aes128Gcm(key).mac_state(PAYLOAD, b"hdr")

    assert len(benchmark(cold)) == 16


def test_poly1305_mac_16k(benchmark):
    tag = benchmark(poly1305_mac, b"K" * 32, PAYLOAD)
    assert len(tag) == 16


def test_poly1305_macs_8x16k(benchmark):
    """Eight records' Poly1305, each under its own one-time key, in one
    lane pass."""
    keys = [bytes([i]) * 32 for i in range(8)]
    tags = benchmark(poly1305_macs, keys, [PAYLOAD] * 8)
    assert len(tags) == 8


def test_aes_ctr_keystreams_8x16k(benchmark):
    """Eight records' AES-CTR keystreams in one gather-bound lane pass:
    with the MACs batched, what an AES-GCM record costs."""
    aes = Aes128(b"K" * 16)
    requests = [(bytes([i]) * 12, 2, len(PAYLOAD) // 16) for i in range(8)]
    streams = benchmark(aes.ctr_keystreams, requests)
    assert [len(stream) for stream in streams] == [len(PAYLOAD)] * 8


def test_chacha20_keystream_16k(benchmark):
    """256 sequential blocks and their XOR: the lane tier."""
    out = benchmark(chacha20_encrypt, b"K" * 32, 1, NONCE, PAYLOAD)
    assert len(out) == len(PAYLOAD)


def test_send_buffer_write_peek_ack_churn(benchmark):
    """The bulk-transfer pattern: app writes, MSS-sized peeks, rolling
    cumulative ACKs (amortised-O(1) with the chunk-list layout)."""
    app_chunk = b"\xCD" * 4096

    def run():
        buf = SendBuffer(base_seq=0, capacity=1 << 20)
        seq = acked = 0
        total = 0
        for _ in range(128):
            buf.write(app_chunk)
            while seq < buf.end_seq:
                total += len(buf.peek(seq, 1460))
                seq = min(seq + 1460, buf.end_seq)
                if seq - acked >= 8 * 1460:
                    acked = seq
                    buf.ack_to(acked)
        return total

    assert benchmark(run) == 128 * 4096


def test_send_buffer_sequential_peek_cursor(benchmark):
    """``_try_send``'s access pattern: many small app writes, then
    MSS-stride peeks walking the whole buffer.  The peek cursor makes
    each step O(1) where a cold bisect pays O(log chunks)."""
    buf = SendBuffer(base_seq=0, capacity=None)
    for _ in range(2048):
        buf.write(b"\xAB" * 512)

    def run():
        total = 0
        seq = 0
        end = buf.end_seq
        while seq < end:
            total += len(buf.peek(seq, 1460))
            seq += 1460
        return total

    assert benchmark(run) == 2048 * 512


def test_receive_buffer_window_with_ooo(benchmark):
    """window() is computed per outgoing segment; with the cached
    out-of-order byte count it stays O(1) however fragmented."""
    buf = ReceiveBuffer(rcv_nxt=0, capacity=1 << 20)
    for i in range(200):
        buf.offer(10000 + 3000 * i, b"x" * 1460)

    def run():
        total = 0
        for _ in range(1000):
            total += buf.window()
        return total

    assert benchmark(run) > 0


def test_simulator_rto_cancel_churn(benchmark):
    """The RTO arm/cancel pattern TCP generates on every ACK: without
    lazy-cancellation compaction the heap grows with dead timers."""

    def run():
        sim = Simulator()
        timer = [None]

        def rearm(n):
            if timer[0] is not None:
                timer[0].cancel()
            if n > 0:
                timer[0] = sim.schedule(10.0, lambda: None)
                sim.schedule(0.001, rearm, n - 1)
            else:
                timer[0].cancel()

        sim.schedule(0.0, rearm, 2000)
        sim.run()
        return sim.pending_events

    assert benchmark(run) == 0


def test_simulator_timer_rearm_churn(benchmark):
    """The same 2000 re-arms through ``Simulator.timer``: the queued
    entry stays where it is, nothing is pushed and nothing goes dead."""

    def run():
        sim = Simulator()
        timer = sim.timer(lambda: None)

        def rearm(n):
            if n > 0:
                timer.arm(10.0)
                sim.schedule(0.001, rearm, n - 1)
            else:
                timer.cancel()

        sim.schedule(0.0, rearm, 2000)
        sim.run()
        return sim.pending_events

    assert benchmark(run) == 0


def _established_pair():
    """One established client connection on a one-path topology."""
    sim = Simulator(seed=1)
    topo = build_multipath(sim, n_paths=1)
    cstack = TcpStack(sim, topo.client)
    sstack = TcpStack(sim, topo.server)
    sstack.listen(443, lambda conn: None)
    path = topo.path(0)
    conn = cstack.connect(path.client_addr, Endpoint(path.server_addr, 443))
    sim.run(until=1.0)
    assert conn.state == "ESTABLISHED"
    return topo, path, conn


def test_mark_holes_lost_wide_scoreboard(benchmark):
    """IsLost over ~60 SACK ranges with one-segment holes between them
    (the shape a blackholed path leaves behind): one pass, not one
    re-summation of the ranges above per hole."""
    _topo, _path, conn = _established_pair()
    mss = conn.mss
    base = conn.snd_una
    conn._sacked = RangeSet(
        (base + (2 * i + 1) * mss, base + (2 * i + 2) * mss)
        for i in range(60))

    def run():
        conn._lost.clear()
        conn._mark_holes_lost()
        return len(conn._lost)

    assert benchmark(run) == 58  # the top two holes have < 3 MSS above


def test_tcp_demux_established(benchmark):
    """One in-order pure ACK through ``TcpStack.receive``: connection
    lookup, state dispatch, option-less ACK processing."""
    topo, path, conn = _established_pair()
    stack = topo.client.stack("tcp")
    segment = Segment.data_segment(
        443, conn.local.port, conn.rcv_buf.rcv_nxt, conn.snd_una,
        FLAGS_ACK, 1 << 20, b"")
    packet = Packet(path.server_addr, path.client_addr, "tcp", segment)
    before = conn.segments_received
    benchmark(stack.receive, packet)
    assert conn.segments_received > before


def test_ffdhe_generate(benchmark):
    """A key pair alone: the fixed-base half of an exchange (comb
    table already built -- a process builds it once)."""
    rng = random.Random(1)
    FFDHE2048.generate(rng)
    pair = benchmark(FFDHE2048.generate, rng)
    assert 1 < pair.public < FFDHE2048.p - 1


def test_ffdhe_exchange(benchmark):
    """One side of a psk_dhe_ke handshake: a key pair plus the shared
    secret, i.e. a fixed-base and a variable-base modexp with a 256-bit
    exponent."""
    rng = random.Random(1)
    peer = FFDHE2048.generate(rng)

    def exchange():
        pair = FFDHE2048.generate(rng)
        return FFDHE2048.shared_secret(pair.private, peer.public)

    assert len(benchmark(exchange)) == 256


def test_iv_derivation_fig2(benchmark):
    iv = benchmark(derive_stream_iv, BASE_IV, 12345)
    assert len(iv) == 12


def test_nonce_xor(benchmark):
    iv = derive_stream_iv(BASE_IV, 7)
    nonce = benchmark(record_nonce, iv, 123456789)
    assert len(nonce) == 12


def test_tag_trial_miss_then_hit(benchmark):
    """The demux worst case: one failed trial (wrong stream) then the
    hit -- the cost footnote 2 of the paper discusses."""
    tx = StreamCryptoContext(NullTagCipher(b"k" * 32), BASE_IV, 3)
    wrong = StreamCryptoContext(NullTagCipher(b"k" * 32), BASE_IV, 5)
    right = StreamCryptoContext(NullTagCipher(b"k" * 32), BASE_IV, 3)
    wire = tx.seal(encode_inner(RECORD_TYPE_STREAM_DATA, PAYLOAD))

    def demux():
        assert not wrong.verify_at(wire, 0)
        assert right.verify_at(wire, 0)

    benchmark(demux)


def test_tag_trial_window_miss(benchmark):
    """The duplicate-replay case: a record no candidate accepts, tried
    against 3 streams x ``trial_window=64`` sequences.  One MAC pass
    over the 16 KiB record, then 192 tag finishes."""
    cipher = NullTagCipher(b"k" * 32)
    tx = StreamCryptoContext(cipher, BASE_IV, 9)
    candidates = [StreamCryptoContext(cipher, BASE_IV, stream_id)
                  for stream_id in (1, 3, 5)]
    wire = tx.seal(encode_inner(RECORD_TYPE_STREAM_DATA, PAYLOAD))

    def demux():
        trial = prepare_record(cipher, wire)
        hits = 0
        for ctx in candidates:
            for seq in range(64):
                hits += ctx.verify_at(trial, seq)
        return hits

    assert benchmark(demux) == 0


def test_reorder_heap_interleaved(benchmark):
    order = list(range(256))
    random.Random(4).shuffle(order)

    def run():
        heap = ReorderBuffer()
        released = 0
        for seq in order:
            released += len(heap.push(seq, b""))
        return released

    assert benchmark(run) == 256


def test_rangeset_scoreboard_churn(benchmark):
    spans = [(i * 3000 % 50000, i * 3000 % 50000 + 1460)
             for i in range(200)]

    def run():
        ranges = RangeSet()
        for start, end in spans:
            ranges.add(start, end)
        for start, end in spans[::2]:
            ranges.subtract(start, end)
        return ranges.total

    assert benchmark(run) > 0


def test_bus_emit_no_subscribers(benchmark):
    """The permanently-wired instrumentation cost when nobody listens:
    must stay a couple of attribute lookups per emit."""
    sim = Simulator()
    bus = sim.bus

    def run():
        for _ in range(1000):
            bus.emit("tcp", "segment_sent", {"conn": 1})
        return bus.events_emitted

    assert benchmark(run) == 0


def test_bus_emit_unwatched_category(benchmark):
    """Hot-path emits on a category no subscriber wants: the memoised
    per-category wants check makes this O(1) instead of a subscriber
    scan + list copy per emit."""
    sim = Simulator()
    bus = sim.bus
    for _ in range(8):
        bus.subscribe(lambda event: None, categories=("session",))

    def run():
        for _ in range(1000):
            bus.emit("tcp", "segment_sent", {"conn": 1})
        return bus.events_emitted

    assert benchmark(run) == 0


def test_bus_wants_memoised(benchmark):
    """wants() guards expensive data-dict construction on hot paths;
    with the mutation-invalidated memo it is one dict lookup."""
    sim = Simulator()
    bus = sim.bus
    for _ in range(8):
        bus.subscribe(lambda event: None, categories=("session", "tls"))

    def run():
        hits = 0
        for _ in range(1000):
            if bus.wants("perf"):
                hits += 1
            if bus.wants("tls"):
                hits += 1
        return hits

    assert benchmark(run) == 1000


def test_ebpf_vm_dispatch(benchmark):
    program = assemble("""
        mov r0, 0
        ldxdw r2, [r1+0]
        add r0, r2
        exit
    """)
    vm = EbpfVm(program)
    ctx = bytearray((42).to_bytes(8, "little"))
    assert benchmark(vm.run, ctx) == 42


def test_ebpf_cubic_on_ack(benchmark):
    cc = EbpfCongestionControl.from_bytecode(1460, cubic_bytecode())
    cc.cwnd = 100 * 1460
    cc.on_loss(0.0)
    state = {"now": 1.0}

    def ack():
        state["now"] += 0.02
        cc.on_ack(1460, 0.02, state["now"], int(cc.cwnd))

    benchmark(ack)
