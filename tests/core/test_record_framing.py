"""TCPLS record framing: end-of-record control data."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import record as rec
from repro.core.errors import TcplsProtocolError


def test_roundtrip_no_control():
    inner = rec.encode_inner(rec.RECORD_TYPE_STREAM_DATA, b"payload")
    out = rec.decode_inner(inner)
    assert out.record_type == rec.RECORD_TYPE_STREAM_DATA
    assert out.payload == b"payload"
    assert out.control == b""


def test_control_data_is_at_the_end():
    """The zero-copy design decision of Sec. 3.1: payload first, control
    fields after, type byte last."""
    inner = rec.encode_inner(rec.RECORD_TYPE_STREAM_DATA, b"DATA",
                             control=b"CTRL")
    assert inner.startswith(b"DATA")
    assert inner[-1] == rec.RECORD_TYPE_STREAM_DATA
    assert inner[-2] == len(b"CTRL")
    assert inner[4:8] == b"CTRL"
    # A zero-copy receiver just truncates: payload is a prefix.
    out = rec.decode_inner(inner)
    assert inner[:len(out.payload)] == out.payload


def test_control_length_limit():
    with pytest.raises(ValueError):
        rec.encode_inner(rec.RECORD_TYPE_CONTROL, b"", b"c" * 256)


def test_decode_rejects_garbage():
    with pytest.raises(TcplsProtocolError):
        rec.decode_inner(b"")
    with pytest.raises(TcplsProtocolError):
        rec.decode_inner(bytes([200, rec.RECORD_TYPE_ACK]))  # bad ctrl len


def test_stream_control_coupled_roundtrip():
    control = rec.encode_stream_control(rec.FLAG_COUPLED, coupled_seq=12345)
    flags, seq = rec.decode_stream_control(control)
    assert flags & rec.FLAG_COUPLED
    assert seq == 12345


def test_stream_control_requires_seq_when_coupled():
    with pytest.raises(ValueError):
        rec.encode_stream_control(rec.FLAG_COUPLED)


def test_stream_control_plain():
    flags, seq = rec.decode_stream_control(
        rec.encode_stream_control(rec.FLAG_FIN)
    )
    assert flags == rec.FLAG_FIN and seq is None


def test_ack_codec():
    entries = [(1, 100), (0xFFFF0001, 2**40)]
    assert rec.decode_ack(rec.encode_ack(entries)) == entries


def test_sync_codec():
    payload = rec.encode_sync(2, [(1, 17), (3, 0)])
    failed, entries = rec.decode_sync(payload)
    assert failed == 2 and entries == [(1, 17), (3, 0)]


def test_tcp_option_codec():
    kind, data = rec.decode_tcp_option(rec.encode_tcp_option(28, b"\x01"))
    assert kind == 28 and data == b"\x01"


def test_ebpf_chunk_codec():
    payload = rec.encode_ebpf_chunk(3, 1, 4, b"code")
    assert rec.decode_ebpf_chunk(payload) == (3, 1, 4, b"code")


def test_user_timeout_codec():
    assert rec.decode_user_timeout(rec.encode_user_timeout(0.25)) == 0.25


def test_control_codecs():
    attach = rec.encode_stream_attach(7, 2**40, coupled_group=3)
    assert rec.decode_control(attach) == rec.CTRL_STREAM_ATTACH
    assert rec.decode_stream_attach(attach) == (7, 2**40, 3)
    cookies = [bytes([i]) * 16 for i in range(3)]
    for opcode in (rec.CTRL_NEW_COOKIES, rec.CTRL_NEW_TOKENS):
        payload = rec.encode_credentials(opcode, cookies)
        assert rec.decode_control(payload) == opcode
        assert rec.decode_credentials(payload) == cookies
    enable = rec.encode_control(rec.CTRL_ENABLE_FAILOVER)
    assert rec.decode_control(enable) == rec.CTRL_ENABLE_FAILOVER


@settings(max_examples=100)
@given(st.binary(max_size=2000), st.binary(max_size=255),
       st.integers(0, 255))
def test_property_inner_roundtrip(payload, control, record_type):
    inner = rec.encode_inner(record_type, payload, control)
    out = rec.decode_inner(inner)
    assert (out.record_type, out.payload, out.control) == (
        record_type, payload, control)
