"""The TCPLS control plane as one table: hostile bytes in every row.

Each row of ``TcplsEngine.ROWS`` (a record type, or a CONTROL opcode
keyed ``(RECORD_TYPE_CONTROL, opcode)``) decodes its payload with its codec in
:mod:`repro.core.record`.  An authenticated but malformed record must
fail the connection that carried it (reason ``"protocol"``), never
escape :meth:`~TcplsEngine.bytes_received` as an exception, and never
be half-applied.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import record as rec
from repro.core.drivers import bootstrap_ready_session
from repro.core.engine import TcplsEngine
from repro.core.engine.connection import FAILED


def ready_pair():
    """A ready server, its connection, a function sealing one inner
    record as the client's control stream would, and the server's
    ``(conn, reason)`` failure list."""
    _client, cconn = bootstrap_ready_session(is_client=True)
    server, sconn = bootstrap_ready_session(is_client=False)
    failures = []
    server.on_conn_failed = lambda conn, reason: failures.append(
        (conn, reason))

    def seal(record_type, payload, control=b""):
        inner = rec.encode_inner(record_type, payload, control)
        return cconn.control_stream.ctx_send.seal(inner)
    return server, sconn, seal, failures


def control(opcode, body=b""):
    return rec.RECORD_TYPE_CONTROL, bytes([opcode]) + body, b""


MALFORMED = {
    "empty CONTROL": (rec.RECORD_TYPE_CONTROL, b"", b""),
    "empty ACK": (rec.RECORD_TYPE_ACK, b"", b""),
    "empty TCP_OPTION": (rec.RECORD_TYPE_TCP_OPTION, b"", b""),
    "short STREAM_ATTACH": control(rec.CTRL_STREAM_ATTACH, b"\x00\x01"),
    "short SYNC": (rec.RECORD_TYPE_SYNC, b"\x00\x00", b""),
    "short EBPF": (rec.RECORD_TYPE_EBPF, b"\x01\x00", b""),
    "short TCPINFO_RESPONSE": control(rec.CTRL_TCPINFO_RESPONSE, b"\x00" * 4),
    "short user timeout": (rec.RECORD_TYPE_TCP_OPTION,
                           bytes([rec.OPT_USER_TIMEOUT, 0, 1]), b""),
    "bad ADD_ADDRESS list": control(rec.CTRL_ADD_ADDRESS, b"\x05\x01"),
    "bad REMOVE_ADDRESS list": control(rec.CTRL_REMOVE_ADDRESS,
                                       b"\x04\x0a\x00"),
    "NEW_COOKIES without count": control(rec.CTRL_NEW_COOKIES),
    "truncated coupled control": (rec.RECORD_TYPE_STREAM_DATA, b"data",
                                  bytes([rec.FLAG_COUPLED, 0, 0, 1])),
    # accepted silently before each decoder checked its counts
    "NEW_COOKIES count overrun": control(rec.CTRL_NEW_COOKIES, b"\xc8"),
    "NEW_TOKENS count overrun": control(rec.CTRL_NEW_TOKENS, b"\xc8"),
    "EBPF total 0": (rec.RECORD_TYPE_EBPF,
                     rec.encode_ebpf_chunk(1, 0, 0, b"code"), b""),
    "EBPF index past total": (rec.RECORD_TYPE_EBPF,
                              rec.encode_ebpf_chunk(1, 3, 3, b"code"), b""),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_record_fails_the_connection(case):
    server, sconn, seal, failures = ready_pair()
    server.bytes_received(sconn, seal(*MALFORMED[case]))
    assert failures == [(sconn, "protocol")]
    assert sconn.state == FAILED and sconn.tcp.aborted
    assert server.cookies == [] and server.tokens == []
    assert server._ebpf_chunks == {}


@pytest.mark.parametrize("chunk,at_cap", [
    (b"\x90" * 16384, 2),      # the 32 KiB of 4,096 instructions
    (b"", 4096),                # one chunk per instruction
], ids=["large chunks", "empty chunks"])
def test_ebpf_chunks_past_the_largest_program_fail_the_connection(
        chunk, at_cap):
    """A session holds what the largest verifiable program needs and no
    more, however the chunks spread over program ids."""
    server, sconn, seal, failures = ready_pair()

    def send(index):
        payload = rec.encode_ebpf_chunk(1 + index % 4, index, 65535, chunk)
        server.bytes_received(sconn, seal(rec.RECORD_TYPE_EBPF, payload))

    for index in range(at_cap):
        send(index)
    assert failures == []
    send(at_cap)
    assert failures == [(sconn, "protocol")]
    assert sconn.state == FAILED and server._ebpf_chunks == {}


def test_a_malformed_record_drops_the_rest_of_its_read():
    server, sconn, seal, failures = ready_pair()
    enable = rec.encode_control(rec.CTRL_ENABLE_FAILOVER)
    server.bytes_received(sconn, seal(rec.RECORD_TYPE_ACK, b"")
                          + seal(rec.RECORD_TYPE_CONTROL, enable))
    assert failures == [(sconn, "protocol")]
    assert not server.failover_enabled


ROWS = [key if isinstance(key, tuple) else (key, None)
        for key in TcplsEngine.ROWS]


@pytest.mark.parametrize("record_type,opcode", ROWS)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(payload=st.binary(max_size=64), control_tail=st.binary(max_size=12))
def test_hostile_bytes_in_every_row(record_type, opcode, payload,
                                    control_tail):
    """Random bytes sealed under each row's type (or opcode) are either
    dispatched or fail the connection as a protocol error."""
    server, sconn, seal, failures = ready_pair()
    if opcode is not None:
        payload = bytes([opcode]) + payload
    if record_type != rec.RECORD_TYPE_STREAM_DATA:
        control_tail = b""
    server.bytes_received(sconn, seal(record_type, payload, control_tail))
    assert server.stats["demux_drops"] == 0
    assert failures in ([], [(sconn, "protocol")])
    assert sconn.tcp.aborted == bool(failures)
