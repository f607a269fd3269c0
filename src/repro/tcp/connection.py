"""TCP connection state machine.

Implements the connection lifecycle over :mod:`repro.net`: three-way
handshake (with optional TCP Fast Open), bidirectional bytestream
transfer with cumulative ACKs, RFC 6298 retransmission timeouts with
exponential backoff, fast retransmit after three duplicate ACKs,
SACK-based loss recovery (an ACK sent while the receive buffer has a
gap carries SACK blocks; the sender keeps an RFC 6675-style scoreboard
of what the peer holds and what is deemed lost), receive-window flow
control, FIN/RST teardown, and the RFC 5482 User Timeout used by TCPLS
to detect blackholed paths.

Simplifications relative to a kernel stack (documented here because
tests rely on them): sequence numbers are Python ints that never wrap
(ISS is small); the advertised window is carried as an integer without
the 16-bit clamp + window-scale split; ACKs are sent immediately
rather than delayed.  None of these affect the transport dynamics the
paper measures.
"""

from repro.net.packet import Packet
from repro.tcp.buffers import ReceiveBuffer, SendBuffer
from repro.tcp.congestion import make_congestion_control
from repro.tcp.options import (
    FastOpenOption,
    MssOption,
    OPT_FAST_OPEN,
    OPT_MSS,
    OPT_SACK,
    SackOption,
)
from repro.tcp.ranges import RangeSet
from repro.tcp.rtt import RttEstimator
from repro.tcp.segment import Segment

# Hot-path flag sets: prebuilt frozensets so per-segment construction
# does not rebuild (and revalidate) a set on every send.
FLAGS_ACK = frozenset({"ACK"})
FLAGS_SYN = frozenset({"SYN"})
FLAGS_SYN_ACK = frozenset({"SYN", "ACK"})
FLAGS_FIN_ACK = frozenset({"FIN", "ACK"})
FLAGS_RST = frozenset({"RST"})

# Connection states
CLOSED = "CLOSED"
SYN_SENT = "SYN_SENT"
SYN_RCVD = "SYN_RCVD"
ESTABLISHED = "ESTABLISHED"
FIN_WAIT_1 = "FIN_WAIT_1"
FIN_WAIT_2 = "FIN_WAIT_2"
CLOSE_WAIT = "CLOSE_WAIT"
LAST_ACK = "LAST_ACK"
CLOSING = "CLOSING"
TIME_WAIT = "TIME_WAIT"

TIME_WAIT_DURATION = 1.0  # shortened 2*MSL for simulation
MAX_SYN_RETRIES = 6
#: bytes an application may queue on one connection (``send_space``)
SEND_BUFFER_CAPACITY = 4 << 20


class TcpConnection:
    """One TCP connection endpoint.

    Applications (and TCPLS) interact through :meth:`send`,
    :meth:`recv`, :meth:`close`, :meth:`abort`, :meth:`tcp_info` and
    the callback attributes ``on_established``, ``on_data``,
    ``on_close``, ``on_reset``, ``on_user_timeout`` and
    ``on_send_space`` -- each called with the connection as the sole
    argument.
    """

    def __init__(self, stack, local, remote, passive=False, cc="cubic",
                 iss=None):
        self.stack = stack
        self.sim = stack.sim
        #: per-simulation ordinal (also seeds the default ISS)
        self.conn_id = self.sim.bus.next_id("conn")
        self.local = local      # Endpoint
        self.remote = remote    # Endpoint
        self.passive = passive
        self.state = CLOSED
        self.mss = stack.mss_for(local, remote)
        self.cc = make_congestion_control(cc, self.mss)
        self.rtt = RttEstimator()

        self.iss = iss if iss is not None else (self.conn_id * 100000)
        self.snd_una = self.iss
        self.snd_nxt = self.iss
        self.snd_buf = SendBuffer(self.iss + 1, capacity=SEND_BUFFER_CAPACITY)
        self.rcv_buf = None     # created once the peer's ISS is known
        self.peer_window = self.mss * 10
        self.irs = None

        self._fin_queued = False
        self._fin_seq = None
        self._fin_sent = False
        self._remote_fin_seen = False

        # One idiom for all four timers: a re-armable Simulator.timer.
        # The RTO moves on every ACK; arm() re-uses its heap entry.
        self._rto_timer = self.sim.timer(self._on_rto)
        self._persist_timer = self.sim.timer(self._on_persist)
        self._uto_timer = self.sim.timer(self._check_uto)
        self._time_wait_timer = self.sim.timer(self._enter_closed, True)
        self._rto_backoff = 0
        self._syn_retries = 0
        self._dupacks = 0
        self._in_recovery = False
        self._recover_point = 0
        # RFC 6675-style scoreboard: what the peer holds, what we deem
        # lost, and what we already retransmitted this recovery episode.
        self._sacked = RangeSet()
        self._lost = RangeSet()
        self._rexmitted = RangeSet()
        #: the holes ``_mark_holes_lost`` marked since ``_rexmitted``
        #: was last cleared, as ``(start, end)``
        self._marked = set()
        self._rtt_seq = None
        self._rtt_time = None
        self._persist_backoff = 0

        # User timeout (RFC 5482): TCPLS's blackhole-detection trigger.
        self.user_timeout = None
        self.last_segment_received = self.sim.now
        self.last_data_received = None

        # TFO state for this connection attempt.
        self._tfo_data = b""
        self._tfo_accepted = False
        self._syn_acked_len = 0

        # Stats for tcp_info().
        self.bytes_sent = 0
        self.bytes_acked = 0
        self.bytes_received = 0
        self.segments_sent = 0
        self.segments_received = 0
        self.retransmissions = 0
        self.established_at = None

        # Burst counters: a burst ("train") is two or more segments one
        # ``_try_send`` or ``_retransmit_lost`` emits back to back.
        self.trains_sent = 0
        self.train_segments_sent = 0

        # Application callbacks.
        self.on_established = None
        self.on_data = None
        self.on_close = None
        self.on_reset = None
        self.on_user_timeout = None
        self.on_send_space = None

        # Observability (repro.obs): last cwnd/ssthresh pair reported,
        # so cwnd_updated only fires on actual changes.
        self._last_cc_obs = None

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def _set_state(self, new_state):
        """All state transitions funnel through here so the event bus
        sees every edge of the connection state machine."""
        old_state, self.state = self.state, new_state
        if old_state != new_state:
            self.sim.bus.emit("tcp", "state_changed", {
                "conn": self.conn_id, "old": old_state, "new": new_state,
            })

    def _observe_cc(self, trigger):
        """Report a cwnd/ssthresh change (after a CC hook ran)."""
        bus = self.sim.bus
        if not bus.wants("tcp"):
            return
        cwnd = int(self.cc.cwnd)
        ssthresh = self.cc.ssthresh
        ssthresh = None if ssthresh == float("inf") else int(ssthresh)
        if (cwnd, ssthresh) == self._last_cc_obs:
            return
        self._last_cc_obs = (cwnd, ssthresh)
        bus.emit("tcp", "cwnd_updated", {
            "conn": self.conn_id, "cwnd": cwnd, "ssthresh": ssthresh,
            "min_cwnd": int(self.cc.min_cwnd), "trigger": trigger,
        })

    # ------------------------------------------------------------------
    # Opening
    # ------------------------------------------------------------------

    def connect(self, tfo_data=b""):
        """Start the active open.  ``tfo_data`` rides on the SYN when a
        Fast Open cookie for the peer is cached."""
        if self.state != CLOSED:
            raise RuntimeError("connect() on %s connection" % self.state)
        self._set_state(SYN_SENT)
        options = [MssOption(self.mss)]
        payload = b""
        if self.stack.tfo_enabled:
            cookie = self.stack.tfo_cookie_for(self.remote.addr)
            options.append(FastOpenOption(cookie))
            if cookie and tfo_data:
                payload = tfo_data[: self.mss]
                self._tfo_data = payload
                self.snd_buf.write(payload)
        self._send_segment(
            flags=FLAGS_SYN, seq=self.iss, options=options, payload=payload
        )
        self.snd_nxt = self.iss + 1 + len(payload)
        self._arm_rto()

    def accept_syn(self, segment, packet):
        """Passive open: stack routed a SYN to this new connection."""
        self._set_state(SYN_RCVD)
        self.irs = segment.seq
        self.rcv_buf = ReceiveBuffer(segment.seq + 1)
        mss_opt = segment.find_option(OPT_MSS)
        if mss_opt is not None:
            self.mss = min(self.mss, mss_opt.mss)
            self.cc.mss = self.mss
        self.peer_window = segment.window
        options = [MssOption(self.mss)]
        tfo = segment.find_option(OPT_FAST_OPEN)
        accepted_tfo_payload = b""
        if tfo is not None and self.stack.tfo_enabled:
            if tfo.cookie and self.stack.tfo_cookie_valid(
                packet.src, tfo.cookie
            ):
                # Valid cookie: the peer is genuine, so the server may
                # respond with data before the handshake ACK (RFC 7413).
                self._tfo_accepted = True
                if segment.payload:
                    self.rcv_buf.offer(segment.seq + 1, segment.payload)
                    accepted_tfo_payload = segment.payload
            else:
                options.append(
                    FastOpenOption(self.stack.tfo_make_cookie(packet.src))
                )
        self._send_segment(
            flags=FLAGS_SYN_ACK,
            seq=self.iss,
            ack=self.rcv_buf.rcv_nxt,
            options=options,
        )
        self.snd_nxt = self.iss + 1
        self._arm_rto()
        if accepted_tfo_payload and self.on_data is not None:
            # Deliver TFO payload once the app attaches callbacks; the
            # stack wires callbacks before calling us, so deliver now.
            self.on_data(self)

    # ------------------------------------------------------------------
    # Application API
    # ------------------------------------------------------------------

    def send(self, data):
        """Queue bytes; returns the count accepted (send-buffer space)."""
        if self.state not in (ESTABLISHED, CLOSE_WAIT, SYN_SENT, SYN_RCVD):
            raise RuntimeError("send() on %s connection" % self.state)
        if self._fin_queued:
            raise RuntimeError("send() after close()")
        accepted = self.snd_buf.write(bytes(data))
        self._try_send()
        return accepted

    def send_space(self):
        """Free bytes in the send buffer."""
        return self.snd_buf.free_space()

    def unsent_bytes(self):
        """Bytes queued in the send buffer but not yet transmitted."""
        return max(self.snd_buf.end_seq - self.snd_nxt, 0)

    def recv(self, n=None):
        """Read up to ``n`` in-order received bytes."""
        if self.rcv_buf is None:
            return b""
        data = self.rcv_buf.read(n)
        # Window-update ACK: reopening a closed (or nearly closed)
        # receive window must be announced or the sender deadlocks.
        # The window before the read was ``len(data)`` smaller.
        if data:
            window = self.rcv_buf.window()
            if window - len(data) <= 2 * self.mss < window \
                    and self.is_open():
                self._send_ack()
        return data

    def readable_bytes(self):
        return 0 if self.rcv_buf is None else self.rcv_buf.readable_bytes()

    def pause_reading(self):
        """Transport interface: nothing to do -- a connection nobody
        reads is already paused (its receive window closes)."""

    def resume_reading(self):
        """Transport interface (see :meth:`pause_reading`)."""

    def close(self):
        """Graceful close: FIN after all queued data."""
        if self.state in (CLOSED, TIME_WAIT, LAST_ACK, CLOSING, FIN_WAIT_1,
                          FIN_WAIT_2):
            return
        self._fin_queued = True
        if self.state == ESTABLISHED:
            self._set_state(FIN_WAIT_1)
        elif self.state == CLOSE_WAIT:
            self._set_state(LAST_ACK)
        self._try_send()

    def abort(self):
        """Hard close: send RST, drop all state."""
        if self.state not in (CLOSED, TIME_WAIT):
            self._send_segment(flags=FLAGS_RST, seq=self.snd_nxt)
        self._enter_closed(notify=False)

    def set_user_timeout(self, seconds):
        """Arm (or update) the RFC 5482 user timeout."""
        self.user_timeout = seconds
        self._schedule_uto_check()

    def is_open(self):
        return self.state in (ESTABLISHED, CLOSE_WAIT, FIN_WAIT_1, FIN_WAIT_2)

    def bytes_in_flight(self):
        return max(self.snd_nxt - self.snd_una - self._ctrl_seq_in_flight(), 0)

    def congestion_window(self):
        """Current congestion window in bytes (Transport interface)."""
        return self.cc.cwnd

    def set_callbacks(self, on_data=None, on_close=None, on_reset=None,
                      on_user_timeout=None, on_send_space=None,
                      on_established=None):
        """Install event callbacks (Transport interface); ``None``
        leaves a slot unchanged."""
        if on_data is not None:
            self.on_data = on_data
        if on_close is not None:
            self.on_close = on_close
        if on_reset is not None:
            self.on_reset = on_reset
        if on_user_timeout is not None:
            self.on_user_timeout = on_user_timeout
        if on_send_space is not None:
            self.on_send_space = on_send_space
        if on_established is not None:
            self.on_established = on_established

    def attach_ebpf_congestion(self, bytecode, program_name="prog"):
        """Verify ``bytecode`` and swap in the eBPF congestion
        controller, preserving the current window state (Sec. 4.4).
        Returns False when verification rejects the program."""
        from repro.ebpf.cc_hooks import EbpfCongestionControl
        from repro.ebpf.verifier import VerificationError

        try:
            cc = EbpfCongestionControl.from_bytecode(
                self.mss, bytecode, program_name=program_name
            )
        except (VerificationError, ValueError):
            return False  # reject quietly; sender is not trusted blindly
        cc.cwnd = self.cc.cwnd
        cc.ssthresh = self.cc.ssthresh
        self.cc = cc
        return True

    def _ctrl_seq_in_flight(self):
        ctrl = 0
        if self.snd_una <= self.iss:
            ctrl += 1  # SYN outstanding
        if self._fin_sent and self.snd_una <= (self._fin_seq or 0):
            ctrl += 1
        return ctrl

    def tcp_info(self):
        """Linux-``tcp_info``-style statistics snapshot.

        This is the interface TCPLS applications use to drive scheduling
        decisions (Sec. 3.3.3: "Using socket options such as tcp_info,
        an application can retrieve useful statistics").
        """
        info = {
            "state": self.state,
            "mss": self.mss,
            "srtt": self.rtt.srtt,
            "rttvar": self.rtt.rttvar,
            "min_rtt": None if self.rtt.min_rtt == float("inf")
            else self.rtt.min_rtt,
            "rto": self.rtt.rto,
            "bytes_in_flight": self.bytes_in_flight(),
            "peer_window": self.peer_window,
            "bytes_sent": self.bytes_sent,
            "bytes_acked": self.bytes_acked,
            "bytes_received": self.bytes_received,
            "segments_sent": self.segments_sent,
            "segments_received": self.segments_received,
            "retransmissions": self.retransmissions,
        }
        info.update(self.cc.snapshot())
        return info

    # ------------------------------------------------------------------
    # Output path
    # ------------------------------------------------------------------

    def _send_window(self):
        return min(self.cc.cwnd, self.peer_window)

    def _try_send(self):
        if self.state in (CLOSED, SYN_SENT, TIME_WAIT):
            return
        if self.state == SYN_RCVD and not self._tfo_accepted:
            return  # wait for the handshake ACK (no TFO validation)
        sent_any = False
        if self._lost.total:  # a plain attribute: no call while none is lost
            sent_any = self._retransmit_lost()
        # New data is built as one burst: the header template -- ports,
        # ACK, advertised window -- is built once, congestion/flow
        # bookkeeping runs on exact local ints, and connection state is
        # committed before the first packet leaves.  ``window`` is
        # constant across the burst (no ACK can arrive between
        # synchronous sends), and ``in_flight`` grows by exactly the
        # payload length per segment.
        snd_nxt = self.snd_nxt
        available = self.snd_buf.end_seq - snd_nxt
        if available > 0:
            in_flight = self._pipe()
            window = self._send_window()
        if available > 0 and window > in_flight:
            mss = self.mss
            rcv_buf = self.rcv_buf
            ack = rcv_buf.rcv_nxt if rcv_buf is not None else 0
            adv_window = rcv_buf.window() if rcv_buf is not None else 1 << 20
            peek = self.snd_buf.peek
            data_segment = Segment.data_segment
            src_port, dst_port = self.local.port, self.remote.port
            src_addr, dst_addr = self.local.addr, self.remote.addr
            burst = []
            while available > 0:
                room = window - in_flight
                if room <= 0:
                    break
                size = mss if mss <= available else available
                if room < size:
                    size = int(room)
                if size <= 0:
                    break
                # Silly-window avoidance: a fractionally-growing
                # cwnd must not clock out runt segments mid-stream;
                # wait until a full MSS of window opens (always
                # flush the stream tail).
                if size < mss and size < available and in_flight > 0:
                    break
                burst.append(Packet(src_addr, dst_addr, "tcp", data_segment(
                    src_port, dst_port, snd_nxt, ack, FLAGS_ACK, adv_window,
                    peek(snd_nxt, size))))
                snd_nxt += size
                if self._rtt_seq is None:
                    self._rtt_seq = snd_nxt
                    self._rtt_time = self.sim.now
                in_flight += size
                available -= size
            if burst:
                self.bytes_sent += snd_nxt - self.snd_nxt
                self.snd_nxt = snd_nxt
                sent_any = True
                n = len(burst)
                self.segments_sent += n
                if n > 1:
                    self.trains_sent += 1
                    self.train_segments_sent += n
                send = self.stack.host.send
                for packet in burst:
                    send(packet)
        if (not sent_any and self.peer_window == 0
                and self.snd_buf.end_seq > self.snd_nxt):
            self._arm_persist()
        if (self._fin_queued and not self._fin_sent
                and self.snd_nxt == self.snd_buf.end_seq):
            self._fin_seq = self.snd_nxt
            self._send_segment(
                flags=FLAGS_FIN_ACK, seq=self.snd_nxt, ack=self._ack_value()
            )
            self.snd_nxt += 1
            self._fin_sent = True
            sent_any = True
        if sent_any:
            self._arm_rto()

    def _ack_value(self):
        return 0 if self.rcv_buf is None else self.rcv_buf.rcv_nxt

    def _send_segment(self, flags, seq, ack=0, options=(), payload=b""):
        window = self.rcv_buf.window() if self.rcv_buf is not None else (
            1 << 20
        )
        segment = Segment(
            src_port=self.local.port,
            dst_port=self.remote.port,
            seq=seq,
            ack=ack,
            flags=frozenset(flags),
            window=window,
            options=tuple(options),
            payload=payload,
        )
        self._emit(segment)

    def _emit(self, segment):
        packet = Packet(self.local.addr, self.remote.addr, "tcp", segment)
        self.segments_sent += 1
        self.stack.host.send(packet)

    def _send_ack(self):
        if self.state == CLOSED:
            return
        rcv_buf = self.rcv_buf
        if rcv_buf is not None and not rcv_buf.has_gap():
            # Pure ACK, nothing to SACK: the option-less constructor.
            self._emit(Segment.data_segment(
                self.local.port, self.remote.port, self.snd_nxt,
                rcv_buf.rcv_nxt, FLAGS_ACK, rcv_buf.window(), b""))
            return
        options = ()
        if rcv_buf is not None:
            options = (SackOption(rcv_buf.sack_blocks()),)
        self._send_segment(flags=FLAGS_ACK, seq=self.snd_nxt,
                           ack=self._ack_value(), options=options)

    # -- SACK scoreboard (RFC 6675 style) ---------------------------------

    def _merge_sack_blocks(self, blocks):
        """Fold peer-reported SACK blocks into the scoreboard."""
        for start, end in blocks:
            self._sacked.add(int(start), int(end))
            self._lost.subtract(int(start), int(end))
        self._prune_scoreboard()

    def _prune_scoreboard(self):
        self._sacked.trim_below(self.snd_una)
        self._lost.trim_below(self.snd_una)
        self._rexmitted.trim_below(self.snd_una)

    def _pipe(self):
        """Bytes believed to actually be in flight."""
        outstanding = self.snd_nxt - self.snd_una
        return max(outstanding - self._sacked.total - self._lost.total, 0)

    def _mark_holes_lost(self):
        """Declare holes lost per RFC 6675's IsLost: a gap counts as lost
        only once at least DupThresh (3) segments' worth of data above it
        has been SACKed -- otherwise it is merely still in flight and
        retransmitting it would inflate the pipe past cwnd."""
        holes = self._sacked.gaps_covered_above(self.snd_una, 3 * self.mss)
        # Mark bottom-up, in MSS chunks, skipping what this recovery
        # episode already retransmitted -- and every hole marked since:
        # what marking it again would add is still in ``_lost``.  A SACK
        # inside a hole makes other holes of it, and whatever else takes
        # bytes out of ``_lost`` drops the holes it touches (``_unmark``).
        mss = self.mss
        marked = self._marked
        covers, add = self._rexmitted.covers, self._lost.add
        for hole in holes:
            if hole in marked:
                continue
            cursor, end = hole
            while cursor < end:
                chunk_end = min(cursor + mss, end)
                if not covers(cursor, chunk_end):
                    add(cursor, chunk_end)
                cursor = chunk_end
        self._marked = set(holes)

    def _unmark(self, seq, end, chunk=False):
        """``[seq, end)`` left ``_lost`` other than by a SACK: each
        marked hole it touches is marked again on the next walk, unless
        it was one whole chunk of the hole's MSS grid, retransmitted
        (``chunk``), which the walk skips."""
        marked, mss = self._marked, self.mss
        for hole in [hole for hole in marked if hole[0] < end
                     and seq < hole[1]]:
            start, hole_end = hole
            if not (chunk and seq >= start and (seq - start) % mss == 0
                    and end == min(seq + mss, hole_end)):
                marked.discard(hole)

    def _retransmit_lost(self):
        """Retransmit marked-lost ranges while the window has room.

        Returns True if anything was (re)sent.
        """
        # Retransmissions are a burst of their own (never counted with
        # the new data that may follow them).
        before = self.retransmissions
        while self._pipe() < self._send_window():
            hole = self._lost.first_range_at_or_above(self.snd_una)
            if hole is None:
                break
            seq, end = hole
            if self._fin_sent and self._fin_seq is not None and \
                    seq >= self._fin_seq:
                self._lost.subtract(seq, end)
                self._unmark(seq, end)
                self._send_segment(flags=FLAGS_FIN_ACK, seq=self._fin_seq,
                                   ack=self._ack_value())
                self.retransmissions += 1
                continue
            end = min(end, seq + self.mss, self.snd_buf.end_seq)
            if end <= seq:
                self._lost.subtract(seq, hole[1])
                self._unmark(seq, hole[1])
                continue
            payload = self.snd_buf.peek(seq, end - seq)
            self._send_segment(flags=FLAGS_ACK, seq=seq,
                               ack=self._ack_value(), payload=payload)
            self._lost.subtract(seq, end)      # back in flight
            self._rexmitted.add(seq, end)
            self._unmark(seq, end, chunk=True)
            self.retransmissions += 1
        n = self.retransmissions - before
        if n == 0:
            return False
        if n > 1:
            self.trains_sent += 1
            self.train_segments_sent += n
        self._arm_rto()
        return True

    # ------------------------------------------------------------------
    # Persist timer (zero-window probing)
    # ------------------------------------------------------------------

    def _arm_persist(self):
        if self._persist_timer.armed:
            return
        self._persist_timer.arm(
            self.rtt.rto * (2 ** min(self._persist_backoff, 6)))

    def _on_persist(self):
        if self.state == CLOSED or self.peer_window > 0:
            self._persist_backoff = 0
            self._try_send()
            return
        if self.snd_buf.end_seq > self.snd_nxt:
            # One-byte window probe; the ACK carries the fresh window.
            payload = self.snd_buf.peek(self.snd_nxt, 1)
            self._send_segment(flags=FLAGS_ACK, seq=self.snd_nxt,
                               ack=self._ack_value(), payload=payload)
            self.snd_nxt += 1
            self._persist_backoff += 1
            self._arm_persist()

    # ------------------------------------------------------------------
    # Retransmission
    # ------------------------------------------------------------------

    def _arm_rto(self):
        self._rto_timer.arm_at(
            self.sim.now + self.rtt.rto * (2 ** self._rto_backoff))

    def _on_rto(self):
        if self.state == CLOSED:
            return
        if self.sim.bus.wants("tcp"):
            self.sim.bus.emit("tcp", "rto", {
                "conn": self.conn_id, "state": self.state,
                "backoff": self._rto_backoff,
            })
        if self.state == SYN_SENT:
            self._syn_retries += 1
            if self._syn_retries > MAX_SYN_RETRIES:
                self._enter_closed(notify=True, reset=True)
                return
            self._rto_backoff += 1
            options = [MssOption(self.mss)]
            if self.stack.tfo_enabled:
                options.append(
                    FastOpenOption(self.stack.tfo_cookie_for(self.remote.addr))
                )
            self._send_segment(flags=FLAGS_SYN, seq=self.iss, options=options,
                               payload=self._tfo_data)
            self._arm_rto()
            return
        if self.state == SYN_RCVD:
            self._rto_backoff += 1
            self._send_segment(flags=FLAGS_SYN_ACK, seq=self.iss,
                               ack=self._ack_value(),
                               options=[MssOption(self.mss)])
            self._arm_rto()
            return
        if self.snd_una >= self.snd_nxt:
            return  # nothing outstanding
        self._rto_backoff += 1
        self.cc.on_rto(self.sim.now)
        self._observe_cc("rto")
        self._rtt_seq = None  # Karn: no samples from retransmits
        self._in_recovery = False
        self._dupacks = 0
        self._rexmitted.clear()
        self._marked = set()
        # Everything outstanding and not SACKed is presumed lost; it will
        # be retransmitted in cwnd-sized bursts as ACKs return.
        self._lost = self._sacked.complement_within(self.snd_una,
                                                    self.snd_nxt)
        self._retransmit_lost()
        self._arm_rto()

    # ------------------------------------------------------------------
    # Input path
    # ------------------------------------------------------------------

    def receive_segment(self, segment, packet):
        """Entry point from the stack's demultiplexer.

        Header prediction (Van Jacobson; Linux ``tcp_rcv_established``):
        an established connection handed an option-less segment whose
        flags are the prebuilt :data:`FLAGS_ACK` itself -- every
        constructor and ``Segment.replace`` keep that object's identity
        -- calls the ACK and payload bodies directly.  Prediction only
        routes: SYN, FIN, RST, options or a rebuilt flag set take
        :meth:`_rx_established_family` to the same bodies, so a miss is
        merely slower.
        """
        self.segments_received += 1
        self.last_segment_received = self.sim.now
        if self.state == ESTABLISHED and segment.flags is FLAGS_ACK \
                and not segment.options:
            if (segment.ack == self.snd_una == self.snd_nxt
                    == self.snd_buf.end_seq and not self._fin_queued
                    and not self._lost.total):
                # Nothing outstanding, queued or lost (a pure
                # receiver's every data segment): all _process_ack
                # would do with this ACK is note the window.
                self.peer_window = segment.window
            else:
                self._process_ack(segment)
            if segment.payload:
                self._process_payload(segment)
            return
        if segment.is_rst:
            self._handle_rst(segment)
            return
        state = self.state
        if state == SYN_SENT:
            self._rx_syn_sent(segment)
        elif state == SYN_RCVD:
            self._rx_syn_rcvd(segment)
        else:
            self._rx_established_family(segment)

    def _handle_rst(self, segment):
        if self.state == CLOSED:
            return
        # Accept the RST if it is in the window (simplified check).
        self._enter_closed(notify=True, reset=True)

    def _rx_syn_sent(self, segment):
        if not (segment.is_syn and segment.is_ack):
            return
        if segment.ack <= self.iss or segment.ack > self.snd_nxt:
            return
        self.irs = segment.seq
        self.rcv_buf = ReceiveBuffer(segment.seq + 1)
        self.peer_window = segment.window
        mss_opt = segment.find_option(OPT_MSS)
        if mss_opt is not None:
            self.mss = min(self.mss, mss_opt.mss)
            self.cc.mss = self.mss
        tfo = segment.find_option(OPT_FAST_OPEN)
        if tfo is not None and tfo.cookie:
            self.stack.tfo_store_cookie(self.remote.addr, tfo.cookie)
        acked_payload = max(segment.ack - self.iss - 1, 0)
        self.snd_una = segment.ack
        self.snd_buf.ack_to(self.iss + 1 + acked_payload)
        if segment.ack < self.snd_nxt:
            # SYN data not accepted (no/expired cookie): rewind and
            # retransmit the payload after establishment.
            self.snd_nxt = segment.ack
        self._rto_backoff = 0
        self._rto_timer.cancel()
        self._become_established()
        self._send_ack()
        self._try_send()

    def _rx_syn_rcvd(self, segment):
        if segment.is_syn and not segment.is_ack:
            # Duplicate SYN: retransmit SYN-ACK.
            self._send_segment(flags=FLAGS_SYN_ACK, seq=self.iss,
                               ack=self._ack_value(),
                               options=[MssOption(self.mss)])
            return
        if segment.is_ack and segment.ack == self.snd_nxt:
            self.snd_una = segment.ack
            self.peer_window = segment.window
            self._rto_backoff = 0
            self._rto_timer.cancel()
            self._become_established()
            if segment.payload:
                self._process_payload(segment)
            self._try_send()

    def _become_established(self):
        self._set_state(ESTABLISHED)
        self.established_at = self.sim.now
        self._schedule_uto_check()
        if self.on_established is not None:
            self.on_established(self)

    def _rx_established_family(self, segment):
        """Every segment for a synchronised connection that header
        prediction did not route: ACK, then payload, then FIN."""
        if segment.is_syn:
            return  # stray SYN; a real stack would challenge-ACK
        if segment.is_ack:
            self._process_ack(segment)
        if segment.payload:
            self._process_payload(segment)
        if segment.is_fin:
            self._process_fin(segment)

    def _process_ack(self, segment):
        ack = segment.ack
        self.peer_window = segment.window
        if ack > self.snd_nxt:
            return  # acks data never sent
        sack_opt = segment.find_option(OPT_SACK) if segment.options \
            else None
        if ack > self.snd_una:
            in_flight_before = self.snd_nxt - self.snd_una
            newly_acked = ack - self.snd_una
            self.snd_una = ack
            data_acked = self.snd_buf.ack_to(ack)
            self.bytes_acked += data_acked
            self._dupacks = 0
            self._rto_backoff = 0
            if sack_opt is not None:
                self._merge_sack_blocks(sack_opt.blocks)
            elif (self._sacked.total or self._lost.total
                  or self._rexmitted.total):
                self._prune_scoreboard()
            rtt_sample = None
            if self._rtt_seq is not None and ack >= self._rtt_seq:
                rtt_sample = self.sim.now - self._rtt_time
                self.rtt.on_sample(rtt_sample)
                self._rtt_seq = None
            if self._in_recovery:
                if ack >= self._recover_point:
                    self._in_recovery = False
                    self._rexmitted.clear()
                    self._marked = set()
                    self.cc.on_exit_recovery(self.sim.now)
                    self._observe_cc("exit_recovery")
                    if self.sim.bus.wants("tcp"):
                        self.sim.bus.emit("tcp", "recovery_exited", {
                            "conn": self.conn_id,
                        })
                else:
                    self._mark_holes_lost()
            else:
                self.cc.on_ack(newly_acked, rtt_sample, self.sim.now,
                               in_flight_before)
                self._observe_cc("ack")
            if self.snd_una >= self.snd_nxt:
                self._rto_timer.cancel()
            else:
                self._arm_rto()
            if self._fin_sent:
                self._handle_ack_state_transitions(ack)
            if self.on_send_space is not None and data_acked:
                self.on_send_space(self)
        elif (ack == self.snd_una and not segment.payload
              and self.snd_nxt > self.snd_una and not segment.is_fin):
            self._dupacks += 1
            if sack_opt is not None:
                self._merge_sack_blocks(sack_opt.blocks)
            self.cc.on_duplicate_ack(self._dupacks, self.sim.now)
            lost_by_sack = self._sacked.total >= 3 * self.mss
            if (self._dupacks >= 3 or lost_by_sack) and not self._in_recovery:
                self._enter_recovery()
            elif self._in_recovery:
                self._mark_holes_lost()
        self._try_send()

    def _enter_recovery(self):
        self._in_recovery = True
        self._recover_point = self.snd_nxt
        self._rexmitted.clear()
        self._marked = set()
        self._rtt_seq = None  # Karn: no samples across a loss event
        self.cc.on_loss(self.sim.now)
        self._observe_cc("loss")
        if self.sim.bus.wants("tcp"):
            self.sim.bus.emit("tcp", "fast_retransmit", {
                "conn": self.conn_id, "recover_point": self._recover_point,
                "dupacks": self._dupacks,
            })
        if self._sacked:
            self._mark_holes_lost()
        else:
            self._lost.add(self.snd_una,
                           min(self.snd_una + self.mss, self.snd_nxt))

    def _handle_ack_state_transitions(self, ack):
        fin_acked = self._fin_sent and ack > (self._fin_seq or 0)
        if self.state == FIN_WAIT_1 and fin_acked:
            self._set_state(FIN_WAIT_2)
        elif self.state == CLOSING and fin_acked:
            self._enter_time_wait()
        elif self.state == LAST_ACK and fin_acked:
            self._enter_closed(notify=True)

    def _process_payload(self, segment):
        if self.rcv_buf is None:
            return
        delivered = self.rcv_buf.offer(segment.seq, segment.payload)
        self.bytes_received += delivered
        self.last_data_received = self.sim.now
        # Deliver before acking so synchronous readers free buffer space
        # that the advertised window can reflect immediately.
        if delivered and self.on_data is not None:
            self.on_data(self)
        self._send_ack()

    def _process_fin(self, segment):
        rcv_buf = self.rcv_buf
        if rcv_buf is None or (segment.end_seq - 1 != rcv_buf.rcv_nxt
                               and segment.seq > rcv_buf.rcv_nxt):
            return  # FIN not yet in order; the ACK we sent covers what we have
        if self._remote_fin_seen:
            self._send_ack()
            return
        self._remote_fin_seen = True
        self.rcv_buf.rcv_nxt += 1
        self._send_ack()
        if self.state == ESTABLISHED:
            self._set_state(CLOSE_WAIT)
        elif self.state == FIN_WAIT_1:
            self._set_state(CLOSING)
        elif self.state == FIN_WAIT_2:
            self._enter_time_wait()
        if self.on_close is not None:
            self.on_close(self)

    # ------------------------------------------------------------------
    # Teardown and timers
    # ------------------------------------------------------------------

    def _enter_time_wait(self):
        self._set_state(TIME_WAIT)
        self._rto_timer.cancel()
        self._time_wait_timer.arm(TIME_WAIT_DURATION)

    def _enter_closed(self, notify=False, reset=False):
        was_open = self.state not in (CLOSED,)
        self._set_state(CLOSED)
        self._rto_timer.cancel()
        self._uto_timer.cancel()
        self._time_wait_timer.cancel()
        self._persist_timer.cancel()
        self.stack.forget(self)
        if not (notify and was_open):
            return
        if reset and self.on_reset is not None:
            self.on_reset(self)
        elif not reset and self.on_close is not None:
            self.on_close(self)

    def _schedule_uto_check(self):
        if self.user_timeout is None or self.state != ESTABLISHED:
            return
        self._uto_timer.arm(max(self.user_timeout / 4.0, 0.01))

    def _check_uto(self):
        if self.user_timeout is None or self.state != ESTABLISHED:
            return
        idle = self.sim.now - self.last_segment_received
        # RFC 5482 covers unacknowledged sent data; the paper
        # additionally uses it receiver-side to notice a stalled inbound
        # transfer.  Either way an *idle* connection must not fire.
        transfer_active = self.bytes_in_flight() > 0 or (
            self.last_data_received is not None
            and self.sim.now - self.last_data_received
            < 4 * self.user_timeout
        )
        if idle >= self.user_timeout and transfer_active:
            if self.on_user_timeout is not None:
                self.on_user_timeout(self)
            return  # fired once; TCPLS decides what happens next
        self._schedule_uto_check()

    def __repr__(self):
        return "TcpConnection(%s %s->%s)" % (self.state, self.local,
                                             self.remote)
