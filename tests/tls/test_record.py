"""TLS 1.3 record layer: framing, protection, reassembly."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto.aead import NullTagCipher
from repro.tls.record import (
    CONTENT_APPLICATION_DATA,
    CONTENT_HANDSHAKE,
    MAX_RECORD_PAYLOAD,
    RecordDecryptor,
    RecordEncryptor,
    RecordReassembler,
    TlsRecordError,
    encode_plaintext_record,
    split_inner_plaintext,
    xor_nonce,
)


def traffic_pair():
    cipher = NullTagCipher(b"K" * 32)
    iv = bytes(range(12))
    return RecordEncryptor(cipher, iv), RecordDecryptor(cipher, iv)


def test_plaintext_record_framing():
    record = encode_plaintext_record(CONTENT_HANDSHAKE, b"hello")
    assert record[0] == CONTENT_HANDSHAKE
    assert record[3:5] == (5).to_bytes(2, "big")
    assert record[5:] == b"hello"


def test_plaintext_record_size_limit():
    with pytest.raises(TlsRecordError):
        encode_plaintext_record(CONTENT_HANDSHAKE,
                                b"x" * (MAX_RECORD_PAYLOAD + 1))


def test_protect_unprotect_roundtrip():
    enc, dec = traffic_pair()
    record = enc.protect(CONTENT_APPLICATION_DATA, b"secret payload")
    assert record[0] == CONTENT_APPLICATION_DATA  # outer type hides inner
    content_type, plaintext = dec.unprotect(record)
    assert content_type == CONTENT_APPLICATION_DATA
    assert plaintext == b"secret payload"


def test_content_type_hiding():
    """A handshake record is outer-typed application_data on the wire --
    the property TCPLS extends to hide its control records (Fig. 1)."""
    enc, dec = traffic_pair()
    record = enc.protect(CONTENT_HANDSHAKE, b"finished-msg")
    assert record[0] == CONTENT_APPLICATION_DATA
    content_type, plaintext = dec.unprotect(record)
    assert content_type == CONTENT_HANDSHAKE


def test_padding_stripped():
    enc, dec = traffic_pair()
    record = enc.protect(CONTENT_APPLICATION_DATA, b"padded", padding=32)
    _, plaintext = dec.unprotect(record)
    assert plaintext == b"padded"


def test_sequence_mismatch_fails():
    enc, dec = traffic_pair()
    first = enc.protect(CONTENT_APPLICATION_DATA, b"one")
    second = enc.protect(CONTENT_APPLICATION_DATA, b"two")
    with pytest.raises(TlsRecordError):
        dec.unprotect(second)  # decryptor expects seq 0
    assert dec.forgery_attempts == 1
    # In order it works.
    dec2 = RecordDecryptor(NullTagCipher(b"K" * 32), bytes(range(12)))
    assert dec2.unprotect(first)[1] == b"one"
    assert dec2.unprotect(second)[1] == b"two"


def test_xor_nonce():
    iv = bytes(12)
    assert xor_nonce(iv, 0) == bytes(12)
    assert xor_nonce(iv, 1)[-1] == 1
    assert xor_nonce(b"\xff" * 12, 1)[-1] == 0xFE


def test_split_inner_rejects_all_padding():
    with pytest.raises(TlsRecordError):
        split_inner_plaintext(b"\x00\x00\x00")


class TestReassembler:
    def test_single_complete_record(self):
        buf = RecordReassembler()
        record = encode_plaintext_record(CONTENT_HANDSHAKE, b"abc")
        assert buf.feed(record) == [record]

    def test_partial_then_complete(self):
        buf = RecordReassembler()
        record = encode_plaintext_record(CONTENT_HANDSHAKE, b"abcdef")
        assert buf.feed(record[:4]) == []
        assert buf.pending_bytes == 4
        assert buf.feed(record[4:]) == [record]
        assert buf.pending_bytes == 0

    def test_multiple_records_one_chunk(self):
        buf = RecordReassembler()
        r1 = encode_plaintext_record(CONTENT_HANDSHAKE, b"one")
        r2 = encode_plaintext_record(CONTENT_APPLICATION_DATA, b"two")
        assert buf.feed(r1 + r2) == [r1, r2]

    def test_records_inside_a_chunk_are_views_of_it(self):
        r1 = encode_plaintext_record(CONTENT_HANDSHAKE, b"one")
        r2 = encode_plaintext_record(CONTENT_APPLICATION_DATA, b"two" * 50)
        chunk = r1 + r2[:10]
        buf = RecordReassembler()
        out = buf.feed(chunk)
        assert out == [r1] and out[0].obj is chunk     # no byte moved
        assert buf.pending_bytes == 10                 # the cut head
        assert buf.feed(r2[10:]) == [r2]

    def test_held_records_come_first(self):
        buf = RecordReassembler()
        held = [encode_plaintext_record(CONTENT_HANDSHAKE, b"h")]
        buf.hold(held)
        record = encode_plaintext_record(CONTENT_APPLICATION_DATA, b"x")
        assert buf.feed(record) == held + [record]
        assert buf.feed(b"") == []

    def test_oversized_record_rejected(self):
        buf = RecordReassembler(max_record=100)
        bogus = bytes([23, 3, 3]) + (5000).to_bytes(2, "big")
        with pytest.raises(TlsRecordError):
            buf.feed(bogus)

    @settings(max_examples=100)
    @given(st.lists(st.binary(min_size=0, max_size=300), min_size=1,
                    max_size=10),
           st.integers(1, 40))
    # Sec. 5.1: full 16 KiB records read one 1,460-byte MSS at a time
    @example(payloads=[b"x" * 16384] * 4, chunk=1460)
    def test_property_any_fragmentation(self, payloads, chunk):
        """However TCP fragments the byte stream, the reassembler yields
        exactly the original records, in order."""
        records = [encode_plaintext_record(CONTENT_APPLICATION_DATA, p)
                   for p in payloads]
        stream = b"".join(records)
        buf = RecordReassembler()
        out = []
        for i in range(0, len(stream), chunk):
            out.extend(buf.feed(stream[i:i + chunk]))
        assert out == records
        assert buf.pending_bytes == 0
