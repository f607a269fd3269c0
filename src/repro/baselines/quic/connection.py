"""Functional QUIC endpoint.

Implements the transport behaviours the paper contrasts with TCPLS:
every packet is individually AEAD-sealed (small encryption units), all
acknowledgment and loss-recovery work happens in user space, and
congestion control is per-connection (shared implementations with the
TCP stack).  The handshake is a 1-RTT FFDHE exchange in CRYPTO frames
with PSK-keyed Initial protection -- structurally QUIC, minus
certificates (same substitution as the TLS stack, see DESIGN.md).

Loss detection follows RFC 9002's packet threshold (3) plus a probe
timeout; lost STREAM data is retransmitted from the per-stream send
buffer by offset.
"""

from repro.baselines.quic import packet as qp
from repro.baselines.quic.udp import UDP_HEADER_BYTES
from repro.crypto.aead import AeadAuthenticationError, get_cipher
from repro.crypto.ffdhe import DHKeyPair, FFDHE2048
from repro.crypto.hkdf import hkdf_expand_label, hkdf_extract
from repro.net.address import ip_header_size
from repro.tcp.congestion import make_congestion_control
from repro.tcp.rtt import RttEstimator

PACKET_THRESHOLD = 3
ACK_EVERY = 2


def _initial_secret(dcid):
    return hkdf_extract(b"quic-initial-salt", dcid.to_bytes(8, "big"))


def _traffic_keys(secret, cipher_cls, label):
    key = hkdf_expand_label(secret, label + b" key", b"",
                            cipher_cls.key_size)
    iv = hkdf_expand_label(secret, label + b" iv", b"", 12)
    return cipher_cls(key), iv


def _nonce(iv, packet_number):
    pn_bytes = packet_number.to_bytes(12, "big")
    return bytes(a ^ b for a, b in zip(iv, pn_bytes))


class _SendStream:
    def __init__(self, stream_id):
        self.stream_id = stream_id
        self.buffer = bytearray()
        self.base_offset = 0      # absolute offset of buffer[0]
        self.next_offset = 0      # next offset to send fresh
        self.fin = False
        self.fin_offset = None
        self.retransmit = []      # [(offset, length)]

    def pending_fresh(self):
        return self.base_offset + len(self.buffer) - self.next_offset


class _RecvStream:
    def __init__(self, stream_id):
        self.stream_id = stream_id
        self.next_offset = 0
        self.segments = {}
        self.buffer = bytearray()
        self.fin_offset = None

    def offer(self, offset, data, fin):
        if fin:
            self.fin_offset = offset + len(data)
        end = offset + len(data)
        if end <= self.next_offset:
            return 0
        if offset < self.next_offset:
            data = data[self.next_offset - offset:]
            offset = self.next_offset
        if offset > self.next_offset:
            existing = self.segments.get(offset)
            if existing is None or len(existing) < len(data):
                self.segments[offset] = data
            return 0
        delivered = len(data)
        self.buffer += data
        self.next_offset = end
        while True:
            follow = None
            for seg_offset in self.segments:
                if seg_offset <= self.next_offset:
                    follow = seg_offset
                    break
            if follow is None:
                break
            data2 = self.segments.pop(follow)
            if follow + len(data2) <= self.next_offset:
                continue
            data2 = data2[self.next_offset - follow:]
            self.buffer += data2
            self.next_offset += len(data2)
            delivered += len(data2)
        return delivered

    @property
    def finished(self):
        return (self.fin_offset is not None
                and self.next_offset >= self.fin_offset)


class QuicConnection:
    """One QUIC connection endpoint."""

    def __init__(self, sim, socket, remote, dcid, is_client, psk,
                 cipher="null-tag", cc="cubic", mtu=1200, gso_batch=1):
        self.sim = sim
        self.socket = socket
        self.remote = remote
        self.dcid = dcid
        self.is_client = is_client
        self.psk = psk
        self.cipher_cls = get_cipher(cipher)
        self.mtu = mtu
        self.gso_batch = gso_batch
        overhead = (ip_header_size(remote.family) + UDP_HEADER_BYTES
                    + qp.HEADER.size + self.cipher_cls.tag_size)
        self.max_frames_bytes = mtu - overhead

        self.established = False
        self.closed = False
        self.rtt = RttEstimator()
        self.cc = make_congestion_control(cc, self.max_frames_bytes)

        # Initial (handshake) keys are derived from the DCID like real
        # QUIC; 1-RTT keys additionally mix the PSK and DHE secret.
        initial = _initial_secret(dcid)
        self._init_seal, self._init_seal_iv = _traffic_keys(
            initial, self.cipher_cls,
            b"client" if is_client else b"server")
        self._init_open, self._init_open_iv = _traffic_keys(
            initial, self.cipher_cls,
            b"server" if is_client else b"client")
        self._seal = None
        self._seal_iv = None
        self._open = None
        self._open_iv = None
        self._dh = FFDHE2048.generate(sim.rng)

        self._next_pn = 0
        self._sent = {}           # pn -> (time, size, [(sid, off, len, fin)])
        self._received = set()
        self._recvd_unacked = 0
        self._largest_acked = -1
        self._pto_timer = sim.timer(self._on_pto)

        self.send_streams = {}
        self.recv_streams = {}
        self._next_stream_id = 0 if is_client else 1

        # Stats for the perf narrative.
        self.packets_sent = 0
        self.packets_received = 0
        self.sendmsg_calls = 0
        self.acks_sent = 0
        self.bytes_delivered = 0

        self.on_established = None
        self.on_stream_data = None   # (conn, stream_id, recv_stream)

        socket.on_datagram = self._on_datagram

    # -- handshake -----------------------------------------------------------

    def start(self):
        """Client: fire the Initial flight."""
        frame = qp.CryptoFrame(0, self._dh.public_bytes())
        self._send_packet(qp.PKT_INITIAL, [frame], handshake=True)
        self._arm_pto()

    def _derive_one_rtt(self, peer_public):
        shared = FFDHE2048.shared_secret(self._dh.private, peer_public)
        secret = hkdf_extract(self.psk, shared)
        client_secret = hkdf_expand_label(secret, b"quic client", b"", 32)
        server_secret = hkdf_expand_label(secret, b"quic server", b"", 32)
        mine, theirs = (
            (client_secret, server_secret) if self.is_client
            else (server_secret, client_secret)
        )
        self._seal, self._seal_iv = _traffic_keys(mine, self.cipher_cls,
                                                  b"1rtt")
        self._open, self._open_iv = _traffic_keys(theirs, self.cipher_cls,
                                                  b"1rtt")

    # -- streams ---------------------------------------------------------------

    def open_stream(self):
        stream_id = self._next_stream_id
        self._next_stream_id += 2
        self.send_streams[stream_id] = _SendStream(stream_id)
        return stream_id

    def stream_send(self, stream_id, data, fin=False):
        stream = self.send_streams[stream_id]
        stream.buffer += data
        if fin:
            stream.fin = True
            stream.fin_offset = stream.base_offset + len(stream.buffer)
        self._pump()
        return len(data)

    # -- output ------------------------------------------------------------------

    def _bytes_in_flight(self):
        return sum(size for _t, size, _f in self._sent.values())

    def _pump(self):
        if not self.established:
            return
        batch = []
        while self._bytes_in_flight() < self.cc.cwnd:
            frames, refs = self._fill_frames()
            if not frames:
                break
            datagram = self._seal_packet(qp.PKT_ONE_RTT, frames)
            self._record_sent(datagram, refs)
            batch.append(datagram)
            if len(batch) >= self.gso_batch:
                self._flush_batch(batch)
                batch = []
        if batch:
            self._flush_batch(batch)

    def _flush_batch(self, batch):
        self.sendmsg_calls += 1
        for datagram in batch:
            self.socket.sendto(datagram, self.remote)
            self.packets_sent += 1
        self._arm_pto()

    def _fill_frames(self):
        """One packet's worth of stream frames (retransmissions first)."""
        frames = []
        refs = []
        room = self.max_frames_bytes
        for stream in self.send_streams.values():
            while stream.retransmit and room > 24:
                offset, length = stream.retransmit.pop(0)
                take = min(length, room - 18)
                if take <= 0:
                    stream.retransmit.insert(0, (offset, length))
                    break
                if take < length:
                    stream.retransmit.insert(0, (offset + take,
                                                 length - take))
                start = offset - stream.base_offset
                data = bytes(stream.buffer[start:start + take])
                fin = (stream.fin_offset is not None
                       and offset + take == stream.fin_offset)
                frames.append(qp.StreamFrame(stream.stream_id, offset,
                                             data, fin))
                refs.append((stream.stream_id, offset, take, fin))
                room -= 18 + take
            fresh = stream.pending_fresh()
            if fresh > 0 and room > 24:
                take = min(fresh, room - 18)
                start = stream.next_offset - stream.base_offset
                data = bytes(stream.buffer[start:start + take])
                offset = stream.next_offset
                stream.next_offset += take
                fin = (stream.fin
                       and stream.next_offset == stream.fin_offset)
                frames.append(qp.StreamFrame(stream.stream_id, offset,
                                             data, fin))
                refs.append((stream.stream_id, offset, take, fin))
                room -= 18 + take
            if room <= 24:
                break
        return frames, refs

    def _seal_packet(self, packet_type, frames, handshake=False):
        pn = self._next_pn
        self._next_pn += 1
        header = qp.encode_packet_header(packet_type, self.dcid, pn)
        payload = b"".join(f.encode() for f in frames)
        if handshake:
            sealer, iv = self._init_seal, self._init_seal_iv
        else:
            sealer, iv = self._seal, self._seal_iv
        return header + sealer.seal(_nonce(iv, pn), payload, aad=header)

    def _send_packet(self, packet_type, frames, handshake=False,
                     track=True):
        datagram = self._seal_packet(packet_type, frames, handshake)
        if track:
            self._record_sent(datagram, [])
        self.sendmsg_calls += 1
        self.packets_sent += 1
        self.socket.sendto(datagram, self.remote)

    def _record_sent(self, datagram, refs):
        pn = self._next_pn - 1
        self._sent[pn] = (self.sim.now, len(datagram), refs)

    # -- input --------------------------------------------------------------------

    def _on_datagram(self, payload, src):
        flags, dcid, pn, header_size = qp.decode_packet_header(payload)
        header = payload[:header_size]
        body = payload[header_size:]
        handshake_pkt = flags in (qp.PKT_INITIAL, qp.PKT_HANDSHAKE)
        opener, iv = (
            (self._init_open, self._init_open_iv) if handshake_pkt
            else (self._open, self._open_iv)
        )
        if opener is None:
            return
        try:
            plaintext = opener.open(_nonce(iv, pn), body, aad=header)
        except AeadAuthenticationError:
            return
        self.packets_received += 1
        self._received.add(pn)
        ack_eliciting = False
        for frame in qp.decode_frames(plaintext):
            if isinstance(frame, qp.CryptoFrame):
                ack_eliciting = True
                self._on_crypto(frame)
            elif isinstance(frame, qp.StreamFrame):
                ack_eliciting = True
                self._on_stream_frame(frame)
            elif isinstance(frame, qp.AckFrame):
                self._on_ack(frame)
            elif isinstance(frame, qp.HandshakeDoneFrame):
                self._complete()
            elif isinstance(frame, qp.PingFrame):
                ack_eliciting = True
            elif isinstance(frame, qp.ConnectionCloseFrame):
                self.closed = True
        if ack_eliciting:
            self._recvd_unacked += 1
            if self._recvd_unacked >= ACK_EVERY:
                self._send_ack()

    def _on_crypto(self, frame):
        peer_public = DHKeyPair.public_from_bytes(frame.data)
        self._derive_one_rtt(peer_public)
        if not self.is_client:
            reply = qp.CryptoFrame(0, self._dh.public_bytes())
            self._send_packet(qp.PKT_HANDSHAKE, [reply], handshake=True,
                              track=False)
            self._send_packet(qp.PKT_ONE_RTT, [qp.HandshakeDoneFrame()],
                              track=False)
            self._complete()
        else:
            self._complete()

    def _complete(self):
        if self.established:
            return
        self.established = True
        if self.on_established is not None:
            self.on_established(self)
        self._pump()

    def _on_stream_frame(self, frame):
        stream = self.recv_streams.get(frame.stream_id)
        if stream is None:
            stream = _RecvStream(frame.stream_id)
            self.recv_streams[frame.stream_id] = stream
        delivered = stream.offer(frame.offset, frame.data, frame.fin)
        self.bytes_delivered += delivered
        if (delivered or stream.finished) and self.on_stream_data is not None:
            self.on_stream_data(self, frame.stream_id, stream)

    def _send_ack(self):
        self._recvd_unacked = 0
        recent = sorted(self._received)[-256:]
        ack = qp.AckFrame.from_received(set(recent))
        self._send_packet(qp.PKT_ONE_RTT, [ack], track=False)
        self.acks_sent += 1

    # -- loss recovery (user-space, RFC 9002 style) ---------------------------------

    def _on_ack(self, frame):
        acked = frame.acked_packet_numbers()
        newly = [pn for pn in acked if pn in self._sent]
        if not newly:
            return
        largest = max(newly)
        sent_time, _size, _refs = self._sent[largest]
        acked_bytes = 0
        for pn in newly:
            _t, size, _refs2 = self._sent.pop(pn)
            acked_bytes += size
        rtt_sample = self.sim.now - sent_time
        self.rtt.on_sample(rtt_sample)
        self._largest_acked = max(self._largest_acked, largest)
        self.cc.on_ack(acked_bytes, rtt_sample, self.sim.now,
                       self._bytes_in_flight())
        self._detect_losses()
        self._arm_pto()
        self._pump()

    def _detect_losses(self):
        lost = [
            pn for pn in self._sent
            if pn + PACKET_THRESHOLD <= self._largest_acked
        ]
        if not lost:
            return
        self.cc.on_loss(self.sim.now)
        for pn in lost:
            _t, _size, refs = self._sent.pop(pn)
            self._queue_retransmits(refs)

    def _queue_retransmits(self, refs):
        for stream_id, offset, length, _fin in refs:
            stream = self.send_streams.get(stream_id)
            if stream is not None:
                stream.retransmit.append((offset, length))

    def _arm_pto(self):
        self._pto_timer.arm(self.rtt.rto)

    def _on_pto(self):
        if self.closed:
            return
        if not self.established and self.is_client:
            frame = qp.CryptoFrame(0, self._dh.public_bytes())
            self._send_packet(qp.PKT_INITIAL, [frame], handshake=True,
                              track=False)
            self._arm_pto()
            return
        if self._sent:
            self.cc.on_rto(self.sim.now)
            for pn in sorted(self._sent):
                _t, _size, refs = self._sent.pop(pn)
                self._queue_retransmits(refs)
                break
            self._pump()
            self._arm_pto()


class QuicClient(QuicConnection):
    _next_dcid = 100

    def __init__(self, sim, udp_stack, local_addr, remote, psk, **kwargs):
        QuicClient._next_dcid += 1
        socket = udp_stack.bind(local_addr)
        super().__init__(sim, socket, remote, QuicClient._next_dcid,
                         is_client=True, psk=psk, **kwargs)


class QuicServer:
    """Accepts connections by DCID on one UDP port."""

    def __init__(self, sim, udp_stack, local_addr, port, psk, **conn_kwargs):
        self.sim = sim
        self.udp_stack = udp_stack
        self.psk = psk
        self.conn_kwargs = conn_kwargs
        self.socket = udp_stack.bind(local_addr, port)
        self.socket.on_datagram = self._on_datagram
        self.connections = {}
        self.on_connection = None

    def _on_datagram(self, payload, src):
        _flags, dcid, _pn, _hs = qp.decode_packet_header(payload)
        conn = self.connections.get(dcid)
        if conn is None:
            conn = QuicConnection(self.sim, self.socket, src, dcid,
                                  is_client=False, psk=self.psk,
                                  **self.conn_kwargs)
            # The server socket stays shared; restore our demux hook.
            self.socket.on_datagram = self._on_datagram
            self.connections[dcid] = conn
            if self.on_connection is not None:
                self.on_connection(conn)
        conn._on_datagram(payload, src)
