"""Multipath TCP baseline (RFC 8684 model).

This is the comparison point of the paper's Figs. 8, 9 and 11: a
kernel-style MPTCP connection built from TCP subflows over
:mod:`repro.tcp`, with

- a data sequence space mapped onto subflows (DSS), reassembled at the
  receiver at segment granularity (1460-byte chunks -- the reason
  MPTCP's aggregated goodput looks smoother than TCPLS's 16 KiB records
  in Fig. 11);
- data-level acknowledgments and reinjection of unacknowledged data
  from failed subflows onto surviving ones;
- path managers: ``fullmesh`` (the Linux default -- one subflow per
  address pair, new subflows when addresses appear) and ``backup``
  (second path opened but unused until the primary fails);
- the lowest-RTT scheduler (the Linux default);
- an interface-configuration delay modelling the time the kernel needs
  to configure a new interface, add routes and inform MPTCP before a
  new subflow becomes usable (the start-up lag visible in Fig. 11);
- token-based subflow association (the cleartext-key weakness relative
  to TCPLS's encrypted cookies is discussed in Sec. 3.3.2 -- this model
  keeps the token association but not the HMAC details).

Failure handling mirrors the behaviours the paper measured: an explicit
RST kills a subflow immediately; a blackholed subflow is only declared
dead when its retransmission timer fires with ``RTO_FAIL_BACKOFF``
backoffs done (TCP's ``on_rto`` hook, Linux's ``BPF_SOCK_OPS_RTO_CB``),
which is what makes MPTCP take seconds per outage in Fig. 9.
Re-created subflows to a previously reset address pair are attempted at
most once; a second RST on the same pair blacklists it (the stall the
paper observed when injecting RSTs repeatedly).

A subflow has one state (``OPENING``, ``UP``, ``FAILED``, ``CLOSED``)
and one way to end (:meth:`MptcpConnection._end_subflow`): its
``reopen_interval`` deadline, an RST, a stall and the peer's FIN all go
through it.  Nothing polls: the path manager runs when a subflow ends,
or from one timer when only ``reopen_interval`` holds it back, so an
idle connection has nothing scheduled.
"""

import struct
from collections import deque

from repro.core.reorder import ReorderBuffer
from repro.net.address import Endpoint

CHUNK_DATA = 0
CHUNK_DATA_ACK = 1
CHUNK_INIT = 2
CHUNK_JOIN = 3
CHUNK_DATA_FIN = 4

DATA_HEADER = struct.Struct("!BQH")   # type, data_seq, length
ACK_HEADER = struct.Struct("!BQ")     # type, data_ack
TOKEN_HEADER = struct.Struct("!BQ")   # type, token

#: subflow declared failed after this many RTO backoffs (blackhole case)
RTO_FAIL_BACKOFF = 3
#: data chunk granularity (one TCP payload per chunk)
CHUNK_SIZE = 1448

#: :attr:`Subflow.state`; FAILED and CLOSED are final
OPENING, UP, FAILED, CLOSED = "opening", "up", "failed", "closed"


class Subflow:
    """One TCP subflow plus its MPTCP bookkeeping."""

    def __init__(self, mptcp, tcp, pair, backup=False, state=OPENING):
        self.mptcp = mptcp
        self.tcp = tcp
        self.pair = pair          # (local addr, remote addr)
        self.backup = backup
        self.state = state
        #: when the subflow came up (``None`` while it never did)
        self.up_at = mptcp.sim.now if state == UP else None
        self._parse_buffer = bytearray()
        tcp.on_data = lambda _c: mptcp._on_subflow_data(self)
        tcp.on_reset = lambda _c: mptcp._end_subflow(self, FAILED, "rst")
        tcp.on_close = lambda _c: mptcp._end_subflow(self, CLOSED, "fin")
        tcp.on_rto = self._on_rto
        tcp.on_send_space = lambda _c: mptcp._pump()

    def usable(self):
        return self.state == UP and self.tcp.is_open()

    def srtt(self):
        value = self.tcp.rtt.srtt
        return value if value is not None else float("inf")

    def _on_rto(self, _tcp, backoff):
        """Blackhole detection: a retransmission timer that has backed
        off ``RTO_FAIL_BACKOFF`` times means the path is gone even
        though no explicit signal arrived."""
        if backoff >= RTO_FAIL_BACKOFF:
            self.mptcp._end_subflow(self, FAILED, "stall")

    def __repr__(self):
        return "Subflow(%s->%s %s%s)" % (
            self.pair[0], self.pair[1], self.state,
            " backup" if self.backup else "",
        )


class MptcpConnection:
    """One MPTCP connection endpoint (either side)."""

    def __init__(self, sim, stack, token, is_client,
                 path_manager="fullmesh", config_delay=0.0):
        self.sim = sim
        self.stack = stack
        self.token = token
        self.is_client = is_client
        self.path_manager = path_manager
        self.config_delay = config_delay
        self.subflows = []
        self._blacklist = {}        # pair -> consecutive RST count

        # Sender state.
        self.snd_next = 0           # next data seq to assign
        self.snd_una = 0            # lowest unacked data seq
        self.pending = bytearray()  # app bytes not yet mapped
        self.unacked = {}           # data_seq -> (chunk bytes, subflow)
        self.reinject_queue = deque()
        self.fin_pending = False
        self.fin_sent = False

        # Receiver state.
        self.reorder = ReorderBuffer()
        self.recv_buffer = bytearray()
        self._chunks_received = 0
        self.remote_fin = False
        self._fin_seq = None
        self.bytes_delivered = 0

        self.on_data = None
        self.on_established = None
        #: ``fn(subflow, reason)`` when a subflow ends; reason is
        #: ``"timeout"``, ``"rst"``, ``"stall"`` or ``"fin"``
        self.on_subflow_ended = None
        #: True once the first subflow came up
        self.established = False
        self._remote_port = None
        self._known_pairs = []       # (local, remote Endpoint) history
        self._reopen_cursor = 0
        self._next_reopen = 0.0
        self._reopen_timer = sim.timer(self._maybe_reopen)
        #: seconds between path-manager re-establishment attempts when
        #: every subflow is dead -- the "several seconds to recover the
        #: right path" behaviour of Fig. 9
        self.reopen_interval = 2.0

    # -- path management --------------------------------------------------

    def open_subflow(self, local_addr, remote, backup=False, initial=False):
        """Create one subflow; subject to the RST blacklist."""
        pair = (local_addr, remote.addr)
        if self._blacklist.get(pair, 0) >= 2:
            return None  # Linux gives up on repeatedly-reset pairs
        tcp = self.stack.connect(local_addr, remote)
        subflow = Subflow(self, tcp, pair, backup=backup)
        self.subflows.append(subflow)
        if (local_addr, remote) not in self._known_pairs:
            self._known_pairs.append((local_addr, remote))
        kind = CHUNK_INIT if initial else CHUNK_JOIN
        tcp.on_established = (
            lambda _c, sf=subflow, k=kind: self._subflow_up(sf, k)
        )
        self._remote_port = remote.port
        # Give up on a subflow that cannot establish quickly, so that
        # the path manager may try another pair (a SYN into a dead path
        # would otherwise count as an attempt in progress for minutes).
        self.sim.schedule(self.reopen_interval, self._expire, subflow)
        return subflow

    def _expire(self, subflow):
        if subflow.state == OPENING:
            self._end_subflow(subflow, FAILED, "timeout")

    def _subflow_up(self, subflow, kind):
        subflow.state = UP
        subflow.up_at = self.sim.now
        subflow.tcp.send(TOKEN_HEADER.pack(kind, self.token))
        if not self.established:
            self.established = True
            if self.on_established is not None:
                self.on_established(self)
        self._pump()

    def attach_passive_subflow(self, tcp):
        """Server side: adopt an accepted TCP connection."""
        subflow = Subflow(self, tcp, (tcp.local.addr, tcp.remote.addr),
                          state=UP)
        self.subflows.append(subflow)
        return subflow

    def add_local_address(self, local_addr, remote=None):
        """Kernel hotplug path: a new local address appeared.  After the
        interface-configuration delay, the fullmesh path manager opens a
        subflow from it (Fig. 11's start-up lag)."""
        def create():
            target = remote
            if target is None and self._remote_port is not None:
                target = self._pick_remote_for(local_addr)
            if target is not None:
                self.open_subflow(local_addr, target)
        self.sim.schedule(self.config_delay, create)

    def _pick_remote_for(self, local_addr):
        for subflow in self.subflows:
            if subflow.pair[1].family == local_addr.family:
                return Endpoint(subflow.pair[1], self._remote_port)
        if self.subflows:
            return Endpoint(self.subflows[0].pair[1], self._remote_port)
        return None

    # -- failure handling --------------------------------------------------

    def _maybe_reopen(self):
        """Path manager: with no usable subflow left, try to
        re-establish one per known address pair, round-robin, at most
        once per ``reopen_interval``.  Each attempt must itself time out
        before the next pair is tried, which is why recovery takes
        seconds.  Runs when a subflow ends, and from ``_reopen_timer``
        when only the interval holds it back."""
        if not self.is_client or not self._known_pairs:
            return
        if any(sf.state == OPENING or sf.usable() for sf in self.subflows):
            return  # its end calls back
        if self.sim.now < self._next_reopen:
            self._reopen_timer.arm_at(self._next_reopen)
            return
        self._next_reopen = self.sim.now + self.reopen_interval
        pair = self._known_pairs[self._reopen_cursor %
                                 len(self._known_pairs)]
        self._reopen_cursor += 1
        self.open_subflow(pair[0], pair[1])

    def _end_subflow(self, subflow, state, reason):
        """End ``subflow`` as FAILED (deadline, RST or stall: the TCP is
        aborted) or CLOSED (the peer's FIN: the TCP is closed).  Only an
        RST counts toward the pair's blacklist.  The subflow's unacked
        chunks are reinjected on the survivors, a backup is promoted,
        and the path manager may open a replacement."""
        if subflow.state in (FAILED, CLOSED):
            return
        subflow.state = state
        if state == CLOSED:
            subflow.tcp.close()
        else:
            subflow.tcp.abort()
        if reason == "rst":
            pair = subflow.pair
            self._blacklist[pair] = self._blacklist.get(pair, 0) + 1
        if self.on_subflow_ended is not None:
            self.on_subflow_ended(subflow, reason)
        for data_seq, (chunk, owner) in sorted(self.unacked.items()):
            if owner is subflow:
                self.reinject_queue.append((data_seq, chunk))
        if self.is_client and self.path_manager == "backup":
            for backup_flow in self.subflows:
                if backup_flow.backup and backup_flow.usable():
                    backup_flow.backup = False  # promote
        self._pump()
        self._maybe_reopen()

    # -- scheduler ---------------------------------------------------------

    def _pick_subflow(self, size):
        active = [sf for sf in self.subflows if sf.usable() and
                  not sf.backup]
        if not active:
            active = [sf for sf in self.subflows if sf.usable()]
        candidates = [
            sf for sf in active
            if sf.tcp.send_space() >= size + DATA_HEADER.size
            and sf.tcp.unsent_bytes() < 64 * 1024
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda sf: sf.srtt())

    # -- send path -----------------------------------------------------------

    def send(self, data):
        """Queue application bytes onto the MPTCP data sequence space."""
        self.pending += data
        self._pump()
        return len(data)

    def close(self):
        self.fin_pending = True
        self._pump()

    def _pump(self):
        progressed = True
        while progressed:
            progressed = False
            # Reinjections first: the receiver is blocked on them.
            if self.reinject_queue:
                data_seq, chunk = self.reinject_queue[0]
                subflow = self._pick_subflow(len(chunk))
                if subflow is not None:
                    self.reinject_queue.popleft()
                    if data_seq in self.unacked:
                        self.unacked[data_seq] = (chunk, subflow)
                        subflow.tcp.send(
                            DATA_HEADER.pack(CHUNK_DATA, data_seq,
                                             len(chunk)) + chunk
                        )
                    progressed = True
                    continue
            if self.pending:
                chunk = bytes(self.pending[:CHUNK_SIZE])
                subflow = self._pick_subflow(len(chunk))
                if subflow is not None:
                    del self.pending[:len(chunk)]
                    data_seq = self.snd_next
                    self.snd_next += 1
                    self.unacked[data_seq] = (chunk, subflow)
                    subflow.tcp.send(
                        DATA_HEADER.pack(CHUNK_DATA, data_seq, len(chunk))
                        + chunk
                    )
                    progressed = True
                    continue
            if self.fin_pending and not self.fin_sent and not self.pending:
                subflow = self._pick_subflow(0)
                if subflow is not None:
                    subflow.tcp.send(
                        DATA_HEADER.pack(CHUNK_DATA_FIN, self.snd_next, 0)
                    )
                    self.fin_sent = True
                    progressed = True

    # -- receive path ----------------------------------------------------------

    def _on_subflow_data(self, subflow):
        data = subflow.tcp.recv()
        if data:
            subflow._parse_buffer += data
        self._parse_subflow_buffer(subflow)

    def _parse_subflow_buffer(self, subflow):
        buf = subflow._parse_buffer
        offset = 0
        while True:
            if len(buf) - offset < 1:
                break
            kind = buf[offset]
            if kind in (CHUNK_INIT, CHUNK_JOIN):
                if len(buf) - offset < TOKEN_HEADER.size:
                    break
                offset += TOKEN_HEADER.size
            elif kind == CHUNK_DATA_ACK:
                if len(buf) - offset < ACK_HEADER.size:
                    break
                _, data_ack = ACK_HEADER.unpack_from(buf, offset)
                offset += ACK_HEADER.size
                self._on_data_ack(data_ack)
            elif kind in (CHUNK_DATA, CHUNK_DATA_FIN):
                if len(buf) - offset < DATA_HEADER.size:
                    break
                _, data_seq, length = DATA_HEADER.unpack_from(buf, offset)
                if len(buf) - offset < DATA_HEADER.size + length:
                    break
                payload = bytes(
                    buf[offset + DATA_HEADER.size:
                        offset + DATA_HEADER.size + length]
                )
                offset += DATA_HEADER.size + length
                if kind == CHUNK_DATA_FIN:
                    self.remote_fin = True
                    self._fin_seq = data_seq
                    if self.on_data is not None:
                        self.on_data(self)
                else:
                    self._on_data_chunk(subflow, data_seq, payload)
            else:
                raise ValueError("bad MPTCP chunk type %d" % kind)
        if offset:
            del buf[:offset]

    def _on_data_chunk(self, subflow, data_seq, payload):
        released = self.reorder.push(data_seq, payload)
        for chunk in released:
            self.recv_buffer += chunk
            self.bytes_delivered += len(chunk)
        self._chunks_received += 1
        if self._chunks_received % 8 == 0 or released:
            self._send_data_ack(subflow)
        if released and self.on_data is not None:
            self.on_data(self)

    def _send_data_ack(self, preferred):
        subflow = preferred if preferred.usable() else None
        if subflow is None:
            usable = [sf for sf in self.subflows if sf.usable()]
            if not usable:
                return
            subflow = usable[0]
        subflow.tcp.send(ACK_HEADER.pack(CHUNK_DATA_ACK,
                                         self.reorder.next_seq))

    def _on_data_ack(self, data_ack):
        for data_seq in [s for s in self.unacked if s < data_ack]:
            del self.unacked[data_seq]
        self.snd_una = max(self.snd_una, data_ack)
        self.reinject_queue = deque(
            (s, c) for s, c in self.reinject_queue if s >= data_ack
        )
        self._pump()

    def recv(self, n=None):
        if n is None or n >= len(self.recv_buffer):
            data = bytes(self.recv_buffer)
            self.recv_buffer.clear()
            return data
        data = bytes(self.recv_buffer[:n])
        del self.recv_buffer[:n]
        return data

    @property
    def complete(self):
        """The peer's DATA_FIN arrived and everything before it was
        delivered in order."""
        return (self.remote_fin and self._fin_seq is not None
                and self.reorder.next_seq >= self._fin_seq)


class MptcpClient(MptcpConnection):
    """Client side: opens the initial subflow, then per path manager."""

    def __init__(self, sim, stack, path_manager="fullmesh",
                 config_delay=0.0):
        super().__init__(sim, stack, 1 + sim.bus.next_id("mptcp"),
                         is_client=True, path_manager=path_manager,
                         config_delay=config_delay)

    def connect(self, address_pairs, port):
        """Open subflows per the path manager.

        ``address_pairs``: list of (local, remote) address pairs; the
        first is the initial subflow.  Under ``backup``, the remaining
        pairs open immediately but stay unused until a failure.
        """
        first = True
        for local, remote_addr in address_pairs:
            self.open_subflow(
                local, Endpoint(remote_addr, port),
                backup=(self.path_manager == "backup" and not first),
                initial=first,
            )
            first = False


class MptcpServer:
    """Listener: accepts subflows and groups them by token."""

    def __init__(self, sim, stack, port, **conn_kwargs):
        self.sim = sim
        self.stack = stack
        self.port = port
        self.conn_kwargs = conn_kwargs
        self.connections = {}
        self.on_connection = None
        stack.listen(port, self._on_accept)

    def _on_accept(self, tcp):
        state = {"buffer": bytearray()}

        def on_first_data(_c):
            data = tcp.recv()
            state["buffer"] += data
            if len(state["buffer"]) < TOKEN_HEADER.size:
                return
            kind, token = TOKEN_HEADER.unpack_from(state["buffer"], 0)
            rest = bytes(state["buffer"][TOKEN_HEADER.size:])
            if kind == CHUNK_INIT:
                conn = MptcpConnection(self.sim, self.stack, token,
                                       is_client=False, **self.conn_kwargs)
                self.connections[token] = conn
                if self.on_connection is not None:
                    self.on_connection(conn)
            else:
                conn = self.connections.get(token)
                if conn is None:
                    tcp.abort()
                    return
            subflow = conn.attach_passive_subflow(tcp)
            if rest:
                subflow._parse_buffer += rest
                conn._parse_subflow_buffer(subflow)

        tcp.on_data = on_first_data
