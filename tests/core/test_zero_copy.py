"""Zero-copy receive framing (Sec. 3.1)."""

import pytest

from repro.core.record import (
    RECORD_TYPE_STREAM_DATA,
    decode_inner,
    encode_inner,
)


def test_zero_copy_payload_is_a_view_over_the_buffer():
    payload = b"Z" * 4096
    inner = encode_inner(RECORD_TYPE_STREAM_DATA, payload, b"\x00")
    record = decode_inner(inner, zero_copy=True)
    assert isinstance(record.payload, memoryview)
    assert bytes(record.payload) == payload
    # Same backing memory: mutating the source shows through the view.
    buffer = bytearray(inner)
    record2 = decode_inner(buffer, zero_copy=True)
    buffer[0] = ord("!")
    assert record2.payload[0] == ord("!")


def test_null_tag_record_opens_to_a_view_of_the_wire_bytes():
    """Verified, "decrypted" and decoded, a null-tag STREAM_DATA payload
    is still the received wire bytes: the first copy is the stream
    buffer's."""
    from repro.core.crypto_context import StreamCryptoContext, prepare_record
    from repro.crypto.aead import NullTagCipher

    cipher = NullTagCipher(b"k" * 32)
    tx = StreamCryptoContext(cipher, bytes(12), 3)
    rx = StreamCryptoContext(cipher, bytes(12), 3)
    payload = bytes(range(256)) * 4
    wire = tx.seal(encode_inner(RECORD_TYPE_STREAM_DATA, payload, b"\x00"))
    trial = prepare_record(cipher, wire)
    assert rx.verify_at(trial, 0)
    record = decode_inner(rx.open_verified(trial, 0), zero_copy=True)
    assert isinstance(record.payload, memoryview)
    assert record.payload.obj is wire
    assert record.payload == payload


def test_default_decode_copies():
    inner = bytearray(encode_inner(RECORD_TYPE_STREAM_DATA, b"abc"))
    record = decode_inner(inner)
    inner[0] = ord("X")
    assert bytes(record.payload) == b"abc"  # unaffected: a copy


def test_zero_copy_and_copy_agree():
    payload = bytes(range(256))
    control = b"\x01" + b"\x07" * 8
    inner = encode_inner(0x30, payload, control)
    a = decode_inner(inner)
    b = decode_inner(inner, zero_copy=True)
    assert bytes(a.payload) == bytes(b.payload)
    assert a.control == b.control
    assert a.record_type == b.record_type


def test_encode_inner_accepts_memoryview_payload():
    backing = bytearray(b"stream-bytes-from-the-app" * 10)
    view = memoryview(backing)[:100]
    inner = encode_inner(RECORD_TYPE_STREAM_DATA, view, b"\x00")
    assert inner == encode_inner(RECORD_TYPE_STREAM_DATA,
                                 bytes(backing[:100]), b"\x00")
    view.release()          # encode_inner held no reference
    del backing[:50]        # and the bytearray can resize again


def test_send_buffer_peek_flows_copy_free_into_a_segment():
    """SendBuffer.peek -> Segment payload without an intermediate copy
    (the zero-copy send path the TCP layer rides)."""
    from repro.tcp.buffers import SendBuffer
    from repro.tcp.segment import Segment

    app_bytes = bytes(range(256)) * 8
    buf = SendBuffer(base_seq=1000)
    buf.write(app_bytes)
    payload = buf.peek(1100, 512)
    segment = Segment(1, 2, seq=1100, payload=payload)
    assert isinstance(segment.payload, memoryview)
    assert segment.payload.obj is app_bytes   # still the app's object
    assert bytes(segment.payload) == app_bytes[100:612]


def test_segment_replace_keeps_zero_copy_payload():
    from repro.tcp.segment import Segment

    data = b"q" * 128
    seg = Segment(1, 2, seq=5, payload=memoryview(data))
    clone = seg.replace(seq=6)
    assert bytes(clone.payload) == data


def test_corruption_fault_handles_memoryview_payloads():
    """BitCorruption rewrites payload bytes; it must cope with segments
    carrying zero-copy views."""
    from repro.net.faults import BitCorruption
    from repro.net.packet import Packet
    from repro.tcp.segment import Segment

    class FakeLink:
        def __init__(self):
            self.sim = None

    fault = BitCorruption(rate=1.0, mode="deliver", seed=3)
    fault.rng = fault._seeded_rng(3)
    data = bytes(range(64))
    seg = Segment(1, 2, seq=0, payload=memoryview(data))
    pkt = Packet(None, None, "tcp", seg)
    assert fault.filter(pkt, now=0.0) is None   # corrupted in place
    corrupted = bytes(pkt.payload.payload)
    assert corrupted != data
    assert sum(a != b for a, b in zip(corrupted, data)) == 1
