"""Congestion control via eBPF programs.

The context ABI mirrors the spirit of the kernel's
``tcp_congestion_ops`` over ``struct bpf_sock_ops``: one flat struct of
u64 fields the program reads, plus writable ``cwnd`` / ``ssthresh``
slots and eight persistent scratch slots for per-connection algorithm
state (w_max, epoch start, ...).

Layout (little-endian u64 each)::

    0   event        0=init 1=ack 2=loss 3=rto
    8   now_us
    16  acked_bytes
    24  rtt_us       (0 = no sample)
    32  min_rtt_us
    40  in_flight
    48  mss
    56  cwnd         (rw)
    64  ssthresh     (rw; SSTHRESH_INF = unset)
    72  scratch[8]   (rw, persisted between invocations)
"""

import struct

from repro.ebpf.vm import DEFAULT_INSTRUCTION_BUDGET, EbpfVm
from repro.ebpf.verifier import verify
from repro.tcp.congestion.base import CongestionControl

EVENT_INIT = 0
EVENT_ACK = 1
EVENT_LOSS = 2
EVENT_RTO = 3

SSTHRESH_INF = 1 << 62

CTX_SIZE = 72 + 8 * 8


class EbpfCongestionControl(CongestionControl):
    """Adapter: runs a verified eBPF program behind the native CC API.

    This is what :class:`repro.core.engine.session.TcplsEngine` attaches when
    the peer ships congestion-controller bytecode (Fig. 12).
    """

    name = "ebpf"

    def __init__(self, mss, instructions, program_name="ebpf",
                 instruction_budget=DEFAULT_INSTRUCTION_BUDGET):
        super().__init__(mss)
        verify(instructions)
        self.name = "ebpf:%s" % program_name
        self.vm = EbpfVm(instructions, instruction_budget=instruction_budget)
        self._scratch = [0] * 8
        self.invocations = 0
        self._run(EVENT_INIT, 0.0, 0, None, 0)

    @classmethod
    def from_bytecode(cls, mss, bytecode, program_name="ebpf"):
        """Decode, verify and instantiate from wire bytes (the form the
        program arrives in over a TCPLS record)."""
        from repro.ebpf.isa import decode_program

        return cls(mss, decode_program(bytecode), program_name=program_name)

    def _run(self, event, now, acked_bytes, rtt, in_flight):
        ssthresh = (
            SSTHRESH_INF if self.ssthresh == float("inf")
            else int(self.ssthresh)
        )
        ctx = bytearray(CTX_SIZE)
        struct.pack_into(
            "<9Q", ctx, 0,
            event,
            int(now * 1e6),
            int(acked_bytes),
            int((rtt or 0) * 1e6),
            0,
            int(in_flight),
            self.mss,
            int(self.cwnd),
            ssthresh,
        )
        struct.pack_into("<8Q", ctx, 72, *self._scratch)
        self.vm.run(ctx)
        self.invocations += 1
        cwnd, ssthresh = struct.unpack_from("<QQ", ctx, 56)
        self._scratch = list(struct.unpack_from("<8Q", ctx, 72))
        self.cwnd = max(cwnd, self.mss)
        self.ssthresh = (
            float("inf") if ssthresh >= SSTHRESH_INF else float(ssthresh)
        )

    # -- CongestionControl hooks -----------------------------------------

    def on_ack(self, acked_bytes, rtt, now, in_flight):
        self._run(EVENT_ACK, now, acked_bytes, rtt, in_flight)

    def on_loss(self, now):
        self._run(EVENT_LOSS, now, 0, None, 0)

    def on_rto(self, now):
        self._run(EVENT_RTO, now, 0, None, 0)
