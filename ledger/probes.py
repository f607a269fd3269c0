"""Direct per-layer probes: each times calls into one layer's public
functions in isolation, away from every other layer.

A probe is a function returning ``(operation, divisor, scale)``: the
operation is timed in rounds, and the metric is the median round's
seconds per call, divided by ``divisor`` and multiplied by ``scale``
(``1e9 / 16384`` turns seconds per 16 KiB seal into ns per byte).

Run alone with ``python ledger/run.py --probes-only``.
"""

import json
import random
import statistics
import time

from env import add_src

add_src()

from repro.core.crypto_context import StreamCryptoContext  # noqa: E402
from repro.core.record import (  # noqa: E402
    RECORD_TYPE_STREAM_DATA,
    decode_inner,
    encode_inner,
)
from repro.crypto import (  # noqa: E402
    FFDHE2048,
    NullTagCipher,
    get_cipher,
    hkdf_expand_label,
)
from repro.ebpf.cc_hooks import EbpfCongestionControl  # noqa: E402
from repro.ebpf.programs import cubic_bytecode  # noqa: E402
from repro.net import IPAddress, Link, Packet, Simulator  # noqa: E402
from repro.perf.loadgen import run_fluid_scenario  # noqa: E402
from repro.tcp.buffers import SendBuffer  # noqa: E402
from repro.tcp.ranges import RangeSet  # noqa: E402
from repro.tls.endpoint import TlsClient, TlsServer  # noqa: E402

RECORD = 16384
PAYLOAD = bytes(range(256)) * (RECORD // 256)
NONCE = b"\x00" * 12
BASE_IV = bytes(range(12))
PSK = b"ledger-probe-psk"


#: the one probe plan, wherever the probes run: the median of ROUNDS
#: rounds of ROUND_S seconds each (>= 0.2 s per probe)
ROUND_S = 0.03
ROUNDS = 7


def measure(operation):
    """Median over ``ROUNDS`` of seconds per call; each round repeats
    the call until ``ROUND_S`` has passed (at least once)."""
    started = time.perf_counter()
    operation()
    once = max(time.perf_counter() - started, 1e-9)
    reps = max(1, int(ROUND_S / once))
    samples = []
    for _ in range(ROUNDS):
        started = time.perf_counter()
        for _ in range(reps):
            operation()
        samples.append((time.perf_counter() - started) / reps)
    return statistics.median(samples)


# -- crypto ---------------------------------------------------------------

def _aead(name, op):
    def probe():
        cipher_cls = get_cipher(name)
        cipher = cipher_cls(b"K" * cipher_cls.key_size)
        sealed = cipher.seal(NONCE, PAYLOAD, b"hdr")
        if op == "seal":
            return (lambda: cipher.seal(NONCE, PAYLOAD, b"hdr")), RECORD, 1e9
        return (lambda: cipher.open(NONCE, sealed, b"hdr")), RECORD, 1e9
    return probe


def _null_tag(op):
    def probe():
        cipher = NullTagCipher(b"k" * 32)
        sealed = cipher.seal(NONCE, PAYLOAD, b"hdr")
        if op == "seal":
            return (lambda: cipher.seal(NONCE, PAYLOAD, b"hdr")), 1, 1e6
        return (lambda: cipher.verify_tag(NONCE, sealed, b"hdr")), 1, 1e6
    return probe


def _ffdhe():
    rng = random.Random(1)
    peer = FFDHE2048.generate(rng)

    def exchange():
        pair = FFDHE2048.generate(rng)
        FFDHE2048.shared_secret(pair.private, peer.public)
    return exchange, 1, 1e3


def _hkdf():
    secret = b"s" * 32
    return (lambda: hkdf_expand_label(secret, b"key", b"", 16)), 1, 1e6


# -- tls ------------------------------------------------------------------

def _tls_handshake(key_exchange):
    def probe():
        rng = random.Random(2)

        def handshake():
            client = TlsClient(PSK, rng, key_exchange=key_exchange)
            server = TlsServer(PSK, rng)
            client.start()
            while not (client.handshake_complete
                       and server.handshake_complete):
                server.feed(client.data_to_send())
                client.feed(server.data_to_send())
        return handshake, 1, 1e3
    return probe


# -- engine ---------------------------------------------------------------

def _record_codec(size):
    def probe():
        payload = PAYLOAD[:size]

        def codec():
            decode_inner(encode_inner(RECORD_TYPE_STREAM_DATA, payload,
                                      b"\x01"))
        return codec, 1, 1e6
    return probe


def _seal_many():
    context = StreamCryptoContext(NullTagCipher(b"k" * 32), BASE_IV, 1)
    inners = [encode_inner(RECORD_TYPE_STREAM_DATA, PAYLOAD)] * 16
    return (lambda: context.seal_many(inners)), len(inners), 1e6


def _tag_trial_miss():
    sender = StreamCryptoContext(NullTagCipher(b"k" * 32), BASE_IV, 3)
    wrong = StreamCryptoContext(NullTagCipher(b"k" * 32), BASE_IV, 5)
    wire = sender.seal(encode_inner(RECORD_TYPE_STREAM_DATA, PAYLOAD))

    def miss():
        if wrong.verify_at(wire, 0):
            raise AssertionError("tag trial on the wrong stream matched")
    return miss, 1, 1e6


# -- tcp --------------------------------------------------------------------

def _sendbuf():
    chunk = b"\xCD" * 4096
    ops = [0]

    def churn():
        """The bulk-transfer pattern: application writes, MSS-sized
        peeks, a cumulative ACK every eight segments."""
        buf = SendBuffer(base_seq=0, capacity=1 << 20)
        seq = acked = count = 0
        for _ in range(128):
            buf.write(chunk)
            count += 1
            while seq < buf.end_seq:
                buf.peek(seq, 1460)
                count += 1
                seq = min(seq + 1460, buf.end_seq)
                if seq - acked >= 8 * 1460:
                    acked = seq
                    buf.ack_to(acked)
                    count += 1
        ops[0] = count

    churn()
    return churn, ops[0], 1e6


def _rangeset():
    spans = [(i * 3000 % 50000, i * 3000 % 50000 + 1460)
             for i in range(200)]

    def adds():
        ranges = RangeSet()
        for start, end in spans:
            ranges.add(start, end)
    return adds, len(spans), 1e6


# -- net --------------------------------------------------------------------

def _noop():
    pass


def _events():
    count = 100_000

    def run():
        sim = Simulator()
        for index in range(count):
            sim.schedule(index * 1e-6, _noop)
        sim.run()
    return run, count, 1e6


def _cancelled_timers():
    count = 2000

    def run():
        """The RTO pattern: every ACK cancels one timer and arms
        another, so the heap fills with dead entries."""
        sim = Simulator()
        timer = [None]

        def rearm(left):
            if timer[0] is not None:
                timer[0].cancel()
            if left:
                timer[0] = sim.schedule(10.0, _noop)
                sim.schedule(0.001, rearm, left - 1)

        sim.schedule(0.0, rearm, count)
        sim.run()
    return run, count, 1e6


class _Pdu:
    """A 1460-byte transport payload, as far as a link can tell."""

    @staticmethod
    def wire_size():
        return 1480


def _link_packets():
    count = 1000
    src, dst = IPAddress("10.0.0.1"), IPAddress("10.0.0.2")
    pdu = _Pdu()

    def run():
        sim = Simulator()
        link = Link(sim, rate_bps=10_000_000_000, delay=0.001,
                    queue_bytes=1 << 30)
        delivered = []
        link.connect(delivered.append)
        for _ in range(count):
            link.send(Packet(src, dst, "udp", pdu))
        sim.run()
        if len(delivered) != count:
            raise AssertionError("link delivered %d of %d packets"
                                 % (len(delivered), count))
    return run, count, 1e6


def _fluid():
    return (lambda: run_fluid_scenario(scenario="fairness", flows=10000)), \
        1, 1e3


# -- obs --------------------------------------------------------------------

def _emit(subscribed):
    def probe():
        bus = Simulator().bus
        seen = [0]
        if subscribed:
            def sink(_event):
                seen[0] += 1
            bus.subscribe(sink)
        data = {"conn": 1}

        def emits():
            for _ in range(1000):
                bus.emit("tcp", "probe", data)
        return emits, 1000, 1e9
    return probe


# -- ebpf -------------------------------------------------------------------

class _CountingList(list):
    """Counts instruction fetches (``instructions[pc]``) of one VM."""

    fetched = 0

    def __getitem__(self, index):
        self.fetched += 1
        return list.__getitem__(self, index)


def _cubic(vm_instructions=None):
    control = EbpfCongestionControl.from_bytecode(1460, cubic_bytecode())
    if vm_instructions is not None:
        control.vm.instructions = vm_instructions(control.vm.instructions)
    control.cwnd = 100 * 1460
    control.on_loss(0.0)
    clock = [1.0]

    def on_ack():
        clock[0] += 0.02
        control.on_ack(1460, 0.02, clock[0], int(control.cwnd))
    return control, on_ack


def _ebpf():
    # instructions per on_ack, counted once on a twin of the timed VM
    counted, on_ack = _cubic(_CountingList)
    before = counted.vm.instructions.fetched
    for _ in range(500):
        on_ack()
    per_ack = (counted.vm.instructions.fetched - before) / 500.0
    _, on_ack = _cubic()
    return on_ack, per_ack, 1e9


PROBES = {
    "crypto.seal_ns_per_byte.chacha20poly1305":
        _aead("chacha20poly1305", "seal"),
    "crypto.open_ns_per_byte.chacha20poly1305":
        _aead("chacha20poly1305", "open"),
    "crypto.seal_ns_per_byte.aes128gcm": _aead("aes128gcm", "seal"),
    "crypto.open_ns_per_byte.aes128gcm": _aead("aes128gcm", "open"),
    "crypto.seal_us_per_record.null-tag": _null_tag("seal"),
    "crypto.verify_us_per_record.null-tag": _null_tag("verify"),
    "crypto.ffdhe_ms_per_exchange": _ffdhe,
    "crypto.hkdf_expand_label_us": _hkdf,
    "tls.handshake_ms.psk_dhe_ke": _tls_handshake("dhe"),
    "tls.handshake_ms.psk_ke": _tls_handshake("psk"),
    "engine.record_codec_us.16k": _record_codec(RECORD),
    "engine.record_codec_us.1k": _record_codec(1024),
    "engine.seal_many_us_per_record": _seal_many,
    "engine.tag_trial_miss_us": _tag_trial_miss,
    "tcp.sendbuf_us_per_op": _sendbuf,
    "tcp.rangeset_us_per_add": _rangeset,
    "net.us_per_event": _events,
    "net.us_per_cancelled_timer": _cancelled_timers,
    "net.us_per_link_packet": _link_packets,
    "net.fluid_ms_per_10k_flows": _fluid,
    "obs.emit_ns_unsubscribed": _emit(False),
    "obs.emit_ns_counting_sink": _emit(True),
    "ebpf.vm_ns_per_insn": _ebpf,
}


def run_probes():
    """Every probe's metric, by name."""
    results = {}
    for name, probe in PROBES.items():
        operation, divisor, scale = probe()
        results[name] = measure(operation) / divisor * scale
    return results


if __name__ == "__main__":
    print(json.dumps(run_probes()))
