"""TCPLS record framing.

On the wire a TCPLS record is a TLS 1.3 encrypted record (outer type
``application_data``), indistinguishable from TLS traffic (Fig. 1 of
the paper).  Inside the AEAD plaintext, TCPLS frames its content as::

    payload bytes ... || control fields ... || control_len(u8) || type(u8)

with the type byte *last* -- extending TLS's inner-content-type trick.
Putting control data at the end is the design decision of Sec. 3.1:
after decrypting into a contiguous per-stream buffer, the receiver
simply truncates the control tail, so application payload never moves.

The control plane is one table, :attr:`TcplsEngine.ROWS
<repro.core.engine.session.TcplsEngine.ROWS>`: one row per record type
and per CONTROL opcode, each with exactly one encode/decode pair below
and one engine handler (``TcplsEngine._on_<name>``).  Decoders raise
:class:`TcplsProtocolError` on malformed input.  All of it is hidden
from the network by encryption; integers are big-endian::

    row                  payload layout                      handler (_on_*)
    -------------------  ----------------------------------  ----------------
    STREAM_DATA     30   bytes; control: flags u8            stream_data
                         [+ group seq u64 if FLAG_COUPLED]
    APPDATA         17   bytes (plain TLS, stream 0)         appdata
    ACK             31   n u8, n x (stream u32, next u64)    ack
    SYNC            32   failed conn u32, n u8,              sync
                         n x (stream u32, resume u64)
    TCP_OPTION      33   kind u8, data                       tcp_option
                         (User Timeout, kind 28: ms u32)
    EBPF            34   program u8, index u16, total u16,   ebpf_chunk
                         bytecode chunk (index < total)
    CONTROL         35   opcode u8, fields (rows below)      control
    PING            36   bytes (echoed as PONG)              ping
    PONG            37   bytes                               pong
    NEW_COOKIES     01   n u8, n x 16-byte cookie            new_cookies
    ADD_ADDRESS     02   n x (family u8, 4 or 16 bytes)      add_address
    REMOVE_ADDRESS  03   as ADD_ADDRESS                      remove_address
    STREAM_ATTACH   04   stream u32, from seq u64, group u32 stream_attach
    ENABLE_FAILOVER 07   --                                  enable_failover
    TCPINFO_REQUEST 0A   --                                  tcpinfo_request
    TCPINFO_RESPONSE 0B  srtt us u32, cwnd u32, ssthresh     tcpinfo_response
                         u32, acked u64, received u64,
                         retransmissions u32
    NEW_TOKENS      0C   as NEW_COOKIES                      new_tokens

``STREAM_DETACH`` (05: stream u32, final seq u64) is sent when a stream
leaves a connection but has no row: the receiver's demux keeps trying
the stream wherever its records arrive.  A stream closes with
``FLAG_FIN`` on its last record, not with a control message.
"""

import struct

from repro.core.errors import TcplsProtocolError
from repro.tls.extensions import decode_address_list, encode_address_list

RECORD_TYPE_APPDATA = 0x17        # plain TLS application data (stream 0)
RECORD_TYPE_STREAM_DATA = 0x30
RECORD_TYPE_ACK = 0x31
RECORD_TYPE_SYNC = 0x32
RECORD_TYPE_TCP_OPTION = 0x33
RECORD_TYPE_EBPF = 0x34
RECORD_TYPE_CONTROL = 0x35
RECORD_TYPE_PING = 0x36
RECORD_TYPE_PONG = 0x37

#: STREAM_DATA control flags
FLAG_COUPLED = 0x01   #: control carries a coupled-stream sequence number
FLAG_FIN = 0x02       #: sender finished this stream
#: STREAM_DATA control tail sizes: flags alone; flags + group seq u64
STREAM_CONTROL_SIZE = 1
COUPLED_CONTROL_SIZE = 9

# Control record opcodes (first byte of a CONTROL payload).
CTRL_NEW_COOKIES = 0x01
CTRL_ADD_ADDRESS = 0x02
CTRL_REMOVE_ADDRESS = 0x03
CTRL_STREAM_ATTACH = 0x04
CTRL_STREAM_DETACH = 0x05
CTRL_ENABLE_FAILOVER = 0x07
CTRL_TCPINFO_REQUEST = 0x0A
CTRL_TCPINFO_RESPONSE = 0x0B
CTRL_NEW_TOKENS = 0x0C

#: RFC 5482 TCP User Timeout option kind (``repro.tcp.options`` has the
#: same constant; the engine may not import :mod:`repro.tcp`).
OPT_USER_TIMEOUT = 28


class TcplsRecord:
    """One decoded TCPLS inner record: (type, payload, control bytes)."""

    __slots__ = ("record_type", "payload", "control")

    def __init__(self, record_type, payload=b"", control=b""):
        self.record_type = record_type
        self.payload = payload
        self.control = control

    def __repr__(self):
        return "TcplsRecord(0x%02x, %d B payload, %d B control)" % (
            self.record_type, len(self.payload), len(self.control)
        )


def encode_trailer(record_type, control=b""):
    """What follows the payload in the AEAD plaintext: the control
    fields, their length and the record type.  The send path keeps a
    record's payload where the application put it and hands the cipher
    ``(payload parts..., trailer)``; the cipher's one gather of the wire
    record is the only copy it makes of the payload."""
    if len(control) > 255:
        raise ValueError("control fields limited to 255 bytes")
    return control + bytes((len(control), record_type))


def encode_inner(record_type, payload=b"", control=b""):
    """Frame the AEAD plaintext with end-of-record control data, in one
    contiguous buffer.  ``payload`` may be any bytes-like object."""
    return b"".join((payload, encode_trailer(record_type, control)))


def decode_inner(plaintext, zero_copy=False):
    """Parse a decrypted record; returns :class:`TcplsRecord`.

    The receive path counterpart of :func:`encode_inner`: the payload is
    the *prefix* of the buffer, so a zero-copy receiver just shrinks the
    buffer length.  With ``zero_copy=True`` the payload is returned as a
    :class:`memoryview` over ``plaintext`` -- no byte is moved, which is
    exactly what the end-of-record layout enables (Sec. 3.1); a
    header-first layout could not offer this without a memmove.
    """
    if len(plaintext) < 2:
        raise TcplsProtocolError("TCPLS record shorter than its trailer")
    record_type = plaintext[-1]
    control_len = plaintext[-2]
    if len(plaintext) < 2 + control_len:
        raise TcplsProtocolError("control length exceeds record")
    payload_end = len(plaintext) - 2 - control_len
    control = bytes(plaintext[payload_end:-2])
    if zero_copy:
        payload = memoryview(plaintext)[:payload_end]
    else:
        payload = plaintext[:payload_end]
    return TcplsRecord(record_type, payload, control)


# -- typed payload codecs: one encode/decode pair per row ------------------

_SEQ = struct.Struct("!Q")
_ENTRY = struct.Struct("!IQ")          # (stream id, record seq)
_SYNC_HEAD = struct.Struct("!IB")
_U32 = struct.Struct("!I")
_EBPF_HEAD = struct.Struct("!BHH")
_ATTACH = struct.Struct("!BIQI")
_DETACH = struct.Struct("!BIQ")
_TCPINFO = struct.Struct("!BIIIQQI")
_CREDENTIAL_SIZE = 16


def _malformed(what):
    return TcplsProtocolError("malformed %s payload" % what)


def _encode_entries(head, entries):
    return head + b"".join(_ENTRY.pack(*entry) for entry in entries)


def _decode_entries(payload, offset, what):
    """``count`` (the byte before ``offset``) entries filling the rest."""
    count = payload[offset - 1]
    if len(payload) != offset + _ENTRY.size * count:
        raise _malformed(what)
    return [_ENTRY.unpack_from(payload, offset + _ENTRY.size * i)
            for i in range(count)]


def encode_stream_control(flags, coupled_seq=None):
    """STREAM_DATA control tail."""
    control = bytes([flags])
    if flags & FLAG_COUPLED:
        if coupled_seq is None:
            raise ValueError("coupled flag requires a sequence number")
        control += _SEQ.pack(coupled_seq)
    return control


def decode_stream_control(control):
    """Returns (flags, coupled_seq or None)."""
    if not control:
        return 0, None
    flags = control[0]
    if not flags & FLAG_COUPLED:
        return flags, None
    if len(control) < COUPLED_CONTROL_SIZE:
        raise _malformed("coupled stream control")
    return flags, _SEQ.unpack_from(control, 1)[0]


def encode_ack(entries):
    """ACK payload: count(u8) then (stream_id u32, next_seq u64) each."""
    return _encode_entries(bytes([len(entries)]), entries)


def decode_ack(payload):
    if not payload:
        raise _malformed("ACK")
    return _decode_entries(payload, 1, "ACK")


def encode_sync(failed_conn_index, entries):
    """SYNC payload: the failed connection and per-stream resume seqs."""
    return _encode_entries(_SYNC_HEAD.pack(failed_conn_index, len(entries)),
                           entries)


def decode_sync(payload):
    if len(payload) < _SYNC_HEAD.size:
        raise _malformed("SYNC")
    (failed_conn_index, _count) = _SYNC_HEAD.unpack_from(payload)
    return failed_conn_index, _decode_entries(payload, _SYNC_HEAD.size,
                                              "SYNC")


def encode_tcp_option(kind, data):
    return bytes([kind]) + data


def decode_tcp_option(payload):
    if not payload:
        raise _malformed("TCP_OPTION")
    return payload[0], payload[1:]


def encode_user_timeout(seconds):
    """User Timeout option data: milliseconds (not space-constrained
    like RFC 5482's 15-bit seconds-or-minutes wire option)."""
    return _U32.pack(int(seconds * 1000))


def decode_user_timeout(data):
    if len(data) != _U32.size:
        raise _malformed("User Timeout")
    return _U32.unpack(data)[0] / 1000.0


def encode_ebpf_chunk(program_id, chunk_index, total_chunks, data):
    return _EBPF_HEAD.pack(program_id, chunk_index, total_chunks) + data


def decode_ebpf_chunk(payload):
    if len(payload) < _EBPF_HEAD.size:
        raise _malformed("EBPF")
    program_id, chunk_index, total_chunks = _EBPF_HEAD.unpack_from(payload)
    if chunk_index >= total_chunks:
        raise _malformed("EBPF")
    return program_id, chunk_index, total_chunks, payload[_EBPF_HEAD.size:]


# -- CONTROL opcodes: every payload starts with its opcode -----------------


def encode_control(opcode):
    """A CONTROL payload that is its opcode alone (ENABLE_FAILOVER,
    TCPINFO_REQUEST)."""
    return bytes([opcode])


def decode_control(payload):
    """The opcode of any CONTROL payload (its row key)."""
    if not payload:
        raise _malformed("CONTROL")
    return payload[0]


def encode_stream_attach(stream_id, from_seq, coupled_group=0):
    return _ATTACH.pack(CTRL_STREAM_ATTACH, stream_id, from_seq,
                        coupled_group)


def decode_stream_attach(payload):
    """Returns (stream_id, from_seq, coupled_group)."""
    if len(payload) != _ATTACH.size:
        raise _malformed("STREAM_ATTACH")
    return _ATTACH.unpack(payload)[1:]


def encode_stream_detach(stream_id, final_seq):
    return _DETACH.pack(CTRL_STREAM_DETACH, stream_id, final_seq)


def encode_credentials(opcode, credentials):
    """NEW_COOKIES / NEW_TOKENS: a batch of 16-byte join credentials."""
    return bytes([opcode, len(credentials)]) + b"".join(credentials)


def decode_credentials(payload):
    if len(payload) < 2 or \
            len(payload) != 2 + _CREDENTIAL_SIZE * payload[1]:
        raise _malformed("credentials")
    return [payload[i:i + _CREDENTIAL_SIZE]
            for i in range(2, len(payload), _CREDENTIAL_SIZE)]


def encode_addresses(opcode, addresses):
    """ADD_ADDRESS / REMOVE_ADDRESS: the TLS extension's address list."""
    return bytes([opcode]) + encode_address_list(addresses)


def decode_addresses(payload):
    try:
        return decode_address_list(payload[1:])
    except ValueError:
        raise _malformed("address list") from None


def encode_tcpinfo_response(info):
    """Pack the remote-``tcp_info`` fields the paper's API exposes."""
    srtt_us = int((info.get("srtt") or 0.0) * 1e6)
    ssthresh = info.get("ssthresh_bytes")
    return _TCPINFO.pack(
        CTRL_TCPINFO_RESPONSE,
        srtt_us,
        int(info.get("cwnd_bytes") or 0),
        int(ssthresh if ssthresh is not None else 0xFFFFFFFF),
        int(info.get("bytes_acked") or 0),
        int(info.get("bytes_received") or 0),
        int(info.get("retransmissions") or 0),
    )


def decode_tcpinfo_response(payload):
    if len(payload) != _TCPINFO.size:
        raise _malformed("TCPINFO_RESPONSE")
    (_op, srtt_us, cwnd, ssthresh, acked, received,
     retrans) = _TCPINFO.unpack(payload)
    return {
        "srtt": srtt_us / 1e6,
        "cwnd_bytes": cwnd,
        "ssthresh_bytes": None if ssthresh == 0xFFFFFFFF else ssthresh,
        "bytes_acked": acked,
        "bytes_received": received,
        "retransmissions": retrans,
    }
