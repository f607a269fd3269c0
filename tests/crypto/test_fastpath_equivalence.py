"""Property tests: every crypto fast path is byte-identical to the
retained reference implementation.

Each bulk primitive has two tiers -- a big-int/scalar one for short
batches and installs without numpy, and a numpy lane one for long
batches -- and one crossover constant, ``_LANE_MIN_BLOCKS``, choosing
between them on a keystream batch's blocks and on each MAC record's
(Poly1305's big-int tier has a second, ``_FOUR_MIN_BLOCKS``, for four
blocks per reduction).  All keep their original implementations as
oracles; Hypothesis drives random keys/nonces/AAD/lengths through both
tiers and across every crossover and demands equality.  A deterministic 65536-byte case covers the
large-batch paths explicitly.

The last sections are the batch: a run of records shares one keystream
lane pass and one MAC lane pass on seal (``seal_many``) and, by
preparing a read's trials together and guessing the nonces, on open
(``TcplsEngine._process_records``).  Both are pinned byte for byte and
event for event against the same records taken one at a time, in every
tier.
"""

import ast
import inspect
import math
import os
import random
import subprocess
import sys
from functools import cache

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import crypto_context
from repro.core.crypto_context import StreamCryptoContext
from repro.core.record import RECORD_TYPE_STREAM_DATA
from repro.core.drivers import bootstrap_ready_session
from repro.crypto import aead, aes, chacha20, gcm, lanes, poly1305
from repro.crypto.aead import Aes128Gcm, Chacha20Poly1305, NullTagCipher
from repro.crypto.aes import Aes128
from repro.crypto.chacha20 import (
    chacha20_block,
    chacha20_block_reference,
    chacha20_encrypt,
)
from repro.crypto.gcm import Ghash
from repro.crypto.poly1305 import P1305, poly1305_mac, poly1305_macs
from repro.obs import CaptureSink
from repro.tls.record import RecordReassembler

from tests.crypto import test_vectors
from tests.crypto.test_tag_trial import reference_seal

TIERED = (chacha20, aes, gcm, poly1305)

needs_numpy = pytest.mark.skipif(
    lanes.numpy() is None, reason="the numpy lane tier needs numpy")

KEY16 = st.binary(min_size=16, max_size=16)
KEY32 = st.binary(min_size=32, max_size=32)
NONCE12 = st.binary(min_size=12, max_size=12)
BLOCK16 = st.binary(min_size=16, max_size=16)
DATA = st.binary(max_size=2048)
COUNTER = st.integers(min_value=0, max_value=0xFFFFFFFF)
# the buffer types TagTrial hands to the primitives
BUFFER = st.sampled_from([bytes, bytearray, memoryview])


def around_crossover(module, block_size, blocks=None):
    """Byte strings from one block below ``module``'s crossover (or
    ``blocks``) to one block above it, ragged tails included."""
    blocks = blocks or module._LANE_MIN_BLOCKS
    return st.binary(min_size=(blocks - 2) * block_size + 1,
                     max_size=(blocks + 1) * block_size - 1)


def force_tier(monkeypatch, tier):
    """``short``: no input reaches a lane tier; ``lanes``: every
    non-empty input does; ``no-numpy``: the modules behave as on an
    install where numpy is not importable."""
    if tier == "no-numpy":
        monkeypatch.setattr(lanes, "_np", None)
        return
    minimum = {"short": math.inf, "lanes": 1}[tier]
    for module in TIERED:
        monkeypatch.setattr(module, "_LANE_MIN_BLOCKS", minimum)


def poly1305_reference(key, message):
    """Naive RFC 8439 Poly1305 (chunk concatenation, per-chunk pad)."""
    r = int.from_bytes(key[:16], "little") & 0x0FFFFFFC0FFFFFFC0FFFFFFC0FFFFFFF
    s = int.from_bytes(key[16:], "little")
    acc = 0
    for i in range(0, len(message), 16):
        chunk = message[i:i + 16] + b"\x01"
        acc = (acc + int.from_bytes(chunk, "little")) * r % P1305
    return ((acc + s) & ((1 << 128) - 1)).to_bytes(16, "little")


def chacha20_reference(key, counter, nonce, data):
    stream = b"".join(
        chacha20_block_reference(key, (counter + i) & 0xFFFFFFFF, nonce)
        for i in range((len(data) + 63) // 64)
    )
    return bytes(p ^ k for p, k in zip(data, stream))


def ctr_reference(aes128, prefix, counter, nblocks):
    return b"".join(
        aes128.encrypt_block_reference(
            prefix + ((counter + i) & 0xFFFFFFFF).to_bytes(4, "big"))
        for i in range(nblocks)
    )


@given(key=KEY16, block=BLOCK16)
def test_aes_block_fast_matches_reference(key, block):
    aes128 = Aes128(key)
    assert aes128.encrypt_block(block) == \
        aes128.encrypt_block_reference(block)


@given(key=KEY16, prefix=NONCE12, counter=COUNTER,
       nblocks=st.integers(min_value=1, max_value=40), buffer=BUFFER)
@settings(max_examples=40, deadline=None)
def test_aes_ctr_keystream_matches_reference(
        key, prefix, counter, nblocks, buffer):
    aes128 = Aes128(key)
    assert aes128.ctr_keystream(buffer(prefix), counter, nblocks) == \
        ctr_reference(aes128, prefix, counter, nblocks)


@given(key=KEY16, aad=DATA, ciphertext=DATA)
@settings(max_examples=60, deadline=None)
def test_ghash_tables_match_per_bit_reference(key, aad, ciphertext):
    ghash = Ghash(Aes128(key).encrypt_block(b"\x00" * 16))
    assert ghash.digest(aad, ciphertext) == \
        ghash.digest_reference(aad, ciphertext)


@given(key=KEY16, aad=st.binary(min_size=1, max_size=40),
       ciphertext=around_crossover(gcm, 16), buffer=BUFFER)
@settings(max_examples=40, deadline=None)
def test_ghash_across_the_crossover_with_carry_in(
        key, aad, ciphertext, buffer):
    """A non-empty AAD leaves a non-zero state for the ciphertext fold
    to start from, whichever tier that fold takes."""
    ghash = Ghash(Aes128(key).encrypt_block(b"\x00" * 16))
    assert ghash.digest(aad, buffer(ciphertext)) == \
        ghash.digest_reference(aad, ciphertext)


@given(key=KEY32, counter=COUNTER, nonce=NONCE12)
def test_chacha20_block_fast_matches_reference(key, counter, nonce):
    assert chacha20_block(key, counter, nonce) == \
        chacha20_block_reference(key, counter, nonce)


@given(key=KEY32, counter=st.integers(min_value=0, max_value=0xFFFFFF00),
       nonce=NONCE12, plaintext=DATA)
@settings(max_examples=60, deadline=None)
def test_chacha20_encrypt_matches_reference_composition(
        key, counter, nonce, plaintext):
    assert chacha20_encrypt(key, counter, nonce, plaintext) == \
        chacha20_reference(key, counter, nonce, plaintext)


@given(key=KEY32, counter=COUNTER, nonce=NONCE12,
       plaintext=around_crossover(chacha20, 64), buffer=BUFFER)
@settings(max_examples=40, deadline=None)
def test_chacha20_encrypt_across_the_crossover(
        key, counter, nonce, plaintext, buffer):
    assert chacha20_encrypt(key, counter, nonce, buffer(plaintext)) == \
        chacha20_reference(key, counter, nonce, plaintext)


@given(key=KEY32, message=DATA)
@settings(max_examples=60, deadline=None)
def test_poly1305_matches_reference(key, message):
    assert poly1305_mac(key, message) == poly1305_reference(key, message)


@given(key=KEY32, message=around_crossover(
    poly1305, 16, poly1305._FOUR_MIN_BLOCKS), buffer=BUFFER)
@settings(max_examples=60, deadline=None)
def test_poly1305_across_the_crossover(key, message, buffer):
    """One block per reduction, then four: the big-int tier's own
    crossover (the lane tier's is each record's, below)."""
    assert poly1305_mac(key, buffer(message)) == \
        poly1305_reference(key, message)


@pytest.mark.parametrize("tier", ["short", "lanes"])
@given(key=KEY32, nonce=NONCE12, aad=st.binary(max_size=40),
       plaintext=st.binary(max_size=400), counter=COUNTER, buffer=BUFFER)
@settings(max_examples=30, deadline=None)
def test_every_primitive_in_a_forced_tier(
        tier, key, nonce, aad, plaintext, counter, buffer):
    """With the crossover at 1 every non-empty input takes the lane
    tier, with it at infinity none does; the bytes out do not change."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        force_tier(monkeypatch, tier)
        assert chacha20_encrypt(key, counter, nonce, buffer(plaintext)) == \
            chacha20_reference(key, counter, nonce, plaintext)
        assert poly1305_mac(key, buffer(plaintext)) == \
            poly1305_reference(key, plaintext)
        aes128 = Aes128(key[:16])
        nblocks = len(plaintext) // 16
        assert aes128.ctr_keystream(buffer(nonce), counter, nblocks) == \
            ctr_reference(aes128, nonce, counter, nblocks)
        ghash = Ghash(aes128.encrypt_block(b"\x00" * 16))
        assert ghash.digest(buffer(aad), buffer(plaintext)) == \
            ghash.digest_reference(aad, plaintext)


VECTORS = [
    test_vectors.test_chacha20_block_rfc8439_2_3_2,
    test_vectors.test_chacha20_encrypt_rfc8439_2_4_2,
    test_vectors.test_poly1305_rfc8439_2_5_2,
    test_vectors.test_aes128_fips197,
    test_vectors.test_aes_gcm_nist_case_3,
    test_vectors.test_aes_gcm_nist_case_4_with_aad,
]


@pytest.mark.parametrize("vector", VECTORS, ids=lambda test: test.__name__)
@pytest.mark.parametrize("tier", ["short", "lanes", "no-numpy"])
def test_published_vectors_in_a_forced_tier(monkeypatch, tier, vector):
    """RFC 8439 and NIST SP 800-38D answers from each tier alone."""
    force_tier(monkeypatch, tier)
    vector()


@given(key=KEY32, nonce=NONCE12, plaintext=DATA, aad=DATA)
@settings(max_examples=40, deadline=None)
def test_chacha20poly1305_roundtrip(key, nonce, plaintext, aad):
    aead = Chacha20Poly1305(key)
    sealed = aead.seal(nonce, plaintext, aad)
    assert aead.verify_tag(nonce, sealed, aad)
    assert aead.open(nonce, sealed, aad) == plaintext


@given(key=KEY16, nonce=NONCE12, plaintext=DATA, aad=DATA)
@settings(max_examples=40, deadline=None)
def test_aes128gcm_roundtrip(key, nonce, plaintext, aad):
    aead = Aes128Gcm(key)
    sealed = aead.seal(nonce, plaintext, aad)
    assert aead.verify_tag(nonce, sealed, aad)
    assert aead.open(nonce, sealed, aad) == plaintext


def test_large_batch_paths_match_references_65536():
    """One deterministic 65536-byte case: exercises the lane tiers of
    ChaCha20, AES-CTR, GHASH and Poly1305 (the short ones when numpy is
    missing) at a size far beyond what Hypothesis generates."""
    data = bytes(i * 131 % 251 for i in range(65536))
    key32 = bytes(range(32))
    key16 = bytes(range(16))
    nonce = bytes(range(12))

    assert chacha20_encrypt(key32, 1, nonce, data) == \
        chacha20_reference(key32, 1, nonce, data)
    assert len(data) // 64 >= chacha20._LANE_MIN_BLOCKS

    aes128 = Aes128(key16)
    nblocks = len(data) // 16
    assert aes128.ctr_keystream(nonce, 2, nblocks) == \
        ctr_reference(aes128, nonce, 2, nblocks)

    ghash = Ghash(aes128.encrypt_block(b"\x00" * 16))
    assert ghash.digest(b"hdr", data) == ghash.digest_reference(b"hdr", data)

    assert poly1305_mac(key32, data) == poly1305_reference(key32, data)

    for aead in (Chacha20Poly1305(key32), Aes128Gcm(key16)):
        sealed = aead.seal(nonce, data, b"hdr")
        assert aead.open(nonce, sealed, b"hdr") == data


def test_ctr_counter_wraps_modulo_2_32():
    aes128 = Aes128(bytes(range(16)))
    prefix = b"\xAA" * 12
    nblocks = aes._LANE_MIN_BLOCKS - 1          # the scalar tier
    assert aes128.ctr_keystream(prefix, 0xFFFFFFFE, nblocks) == \
        ctr_reference(aes128, prefix, 0xFFFFFFFE, nblocks)


def test_swar_counter_wraps_modulo_2_32():
    key = bytes(range(32))
    nonce = b"\x07" * 12
    data = bytes(64 * 8)                         # the wide-integer tier
    assert len(data) // 64 < chacha20._LANE_MIN_BLOCKS
    assert chacha20_encrypt(key, 0xFFFFFFFD, nonce, data) == \
        chacha20_reference(key, 0xFFFFFFFD, nonce, data)


@needs_numpy
@pytest.mark.parametrize("first", [0xFFFFFFFD, 0xFFFFFFFF, 0x1FFFFFFFE])
def test_lane_counters_wrap_modulo_2_32(first):
    """The counter row of a lane state is 64-bit until it is cast, so a
    run that crosses 2^32 -- or starts beyond it -- wraps as the scalar
    tiers' ``& 0xFFFFFFFF`` does."""
    nonce = b"\x07" * 12
    data = bytes(64 * (chacha20._LANE_MIN_BLOCKS + 4))
    assert chacha20_encrypt(bytes(range(32)), first, nonce, data) == \
        chacha20_reference(bytes(range(32)), first, nonce, data)

    aes128 = Aes128(bytes(range(16)))
    nblocks = aes._LANE_MIN_BLOCKS + 4
    assert aes128.ctr_keystream(nonce, first, nblocks) == \
        ctr_reference(aes128, nonce, first, nblocks)


def test_ghash_builds_its_tables_once_they_pay():
    """Half the keys of a connection never hash a byte and the
    handshake-traffic keys hash a few blocks: neither builds a table.
    The byte tables come with multiplication ``_TABLE_MIN_MULTS``, the
    lane tables (H ... H^64) with the first lane-sized record; the
    digests are the reference's all along."""
    ghash = Ghash(bytes(range(16)))
    block = bytes(range(16))          # two multiplications a digest
    for _ in range((gcm._TABLE_MIN_MULTS - 1) // 2):
        assert ghash.digest(b"", block) == ghash.digest_reference(b"", block)
    assert ghash._tables is None and "_power_tables" not in vars(ghash)
    assert ghash.digest(b"", block) == ghash.digest_reference(b"", block)
    assert ghash._tables is not None and "_power_tables" not in vars(ghash)
    if lanes.numpy() is not None:
        long = bytes(16 * gcm._LANE_MIN_BLOCKS)
        assert ghash.digest(b"hdr", long) == \
            ghash.digest_reference(b"hdr", long)
        assert "_power_tables" in vars(ghash)


# -- one lane pass per batch of records -----------------------------------

AEADS = [Chacha20Poly1305, Aes128Gcm, NullTagCipher]
TIERS = ["short", "lanes", "no-numpy"]
RECORD = 16384


def crossings(*crossovers):
    """Byte lengths one block either side of crossovers (in blocks)."""
    return [16 * (blocks + step) for blocks in crossovers
            for step in (-1, 0, 1)]


MAC_CROSSINGS = crossings(poly1305._FOUR_MIN_BLOCKS,
                          poly1305._LANE_MIN_BLOCKS, gcm._LANE_MIN_BLOCKS)
# empty, one byte, around a ChaCha20 and an AES block, ragged, around
# the MAC crossovers, a whole 16 KiB record and its neighbours
LENGTH = st.sampled_from(sorted({
    0, 1, 15, 16, 17, 63, 64, 65, 100, 1000, 1500, 2571, RECORD - 1, RECORD,
    *MAC_CROSSINGS}))


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("cipher_cls", AEADS)
@given(key=KEY32, lengths=st.lists(LENGTH, min_size=1, max_size=20),
       data=st.data())
@settings(max_examples=12, deadline=None)
def test_seal_many_is_seal_record_by_record(
        cipher_cls, tier, key, lengths, data):
    """A run sealed with the pads and tags of one pass each, sealed one
    by one and sealed straight from the specification: the same bytes,
    whatever lengths share a pass."""
    key = key[:cipher_cls.key_size]
    nonces = data.draw(st.lists(NONCE12, min_size=len(lengths),
                                max_size=len(lengths)))
    aads = data.draw(st.lists(st.binary(max_size=24), min_size=len(lengths),
                              max_size=len(lengths)))
    plaintexts = [bytes((i + 7 * n) % 251 for i in range(length))
                  for n, length in enumerate(lengths)]
    with pytest.MonkeyPatch.context() as monkeypatch:
        force_tier(monkeypatch, tier)
        cipher = cipher_cls(key)
        sealed = cipher.seal_many(nonces, plaintexts, aads)
        assert sealed == [cipher.seal(*record)
                          for record in zip(nonces, plaintexts, aads)]
        assert sealed == [reference_seal(cipher_cls, key, *record)
                          for record in zip(nonces, plaintexts, aads)]
        # the record layer: consecutive sequences of one stream
        twins = [StreamCryptoContext(cipher, bytes(range(12)), 5)
                 for _ in range(2)]
        assert twins[0].seal_many(plaintexts) == \
            [twins[1].seal(plaintext) for plaintext in plaintexts]
        assert twins[0].send_seq == twins[1].send_seq == len(lengths)


# -- one MAC pass per batch of records ------------------------------------
#
# A message is named by its length and a fill -- zeros, all ones (the
# largest limbs a lane holds) or pseudo-random bytes -- so that the slow
# references run once per distinct message, not once per example.

MAC_LENGTH = st.sampled_from(sorted({
    0, 1, 15, 16, 17, RECORD - 1, RECORD, RECORD + 1, *MAC_CROSSINGS}))
MAC_FILL = st.integers(0, 2)


@cache
def filled(length, fill):
    if fill == 2:
        return random.Random(length).randbytes(length)
    return bytes([0xFF * fill]) * length


@cache
def poly1305_reference_of(key, length, fill):
    return poly1305_reference(key, filled(length, fill))


@cache
def ghash_reference_of(h_key, aad, length, fill):
    return Ghash(h_key).digest_reference(aad, filled(length, fill))


@pytest.mark.parametrize("tier", TIERS)
@given(batch=st.lists(st.tuples(
    st.sampled_from([bytes(32), b"\xFF" * 32, bytes(range(32))]),
    MAC_LENGTH, MAC_FILL), min_size=1, max_size=20))
@settings(max_examples=15, deadline=None)
def test_poly1305_macs_is_poly1305_mac_message_by_message(tier, batch):
    """A batch of mixed lengths in one pass, message by message and
    straight from the specification: the same tags, in every tier."""
    keys = [key for key, _, _ in batch]
    messages = [filled(length, fill) for _, length, fill in batch]
    with pytest.MonkeyPatch.context() as monkeypatch:
        force_tier(monkeypatch, tier)
        tags = poly1305_macs(keys, messages)
        assert tags == list(map(poly1305_mac, keys, messages))
    assert tags == [poly1305_reference_of(*message) for message in batch]


@pytest.mark.parametrize("tier", TIERS)
@given(h_key=st.sampled_from([bytes(range(16)), b"\xFF" * 16]),
       batch=st.lists(st.tuples(
           st.sampled_from([b"", b"\x17\x03\x03\x40\x11", bytes(range(17))]),
           MAC_LENGTH, MAC_FILL), min_size=1, max_size=20))
@settings(max_examples=15, deadline=None)
def test_ghash_digests_is_digest_reference_record_by_record(
        tier, h_key, batch):
    aads = [aad for aad, _, _ in batch]
    ciphertexts = [filled(length, fill) for _, length, fill in batch]
    with pytest.MonkeyPatch.context() as monkeypatch:
        force_tier(monkeypatch, tier)
        assert Ghash(h_key).digests(aads, ciphertexts) == \
            [ghash_reference_of(h_key, *record) for record in batch]


@pytest.mark.parametrize("tier", TIERS)
@given(count=st.integers(1, 20), data=st.data())
@settings(max_examples=10, deadline=None)
def test_a_wrong_size_key_anywhere_in_a_batch_raises(tier, count, data):
    keys = [bytes(32)] * count
    keys[data.draw(st.integers(0, count - 1))] = bytes(
        data.draw(st.sampled_from([0, 16, 31, 33])))
    with pytest.MonkeyPatch.context() as monkeypatch:
        force_tier(monkeypatch, tier)
        with pytest.raises(ValueError):
            poly1305_macs(keys, [bytes(RECORD)] * count)


def test_carried_limbs_join_by_adding():
    """A carried limb may reach 2^26, into the next limb's bit 0: the
    value is the limbs' sum, which OR-ing them would lose."""
    limbs = [(1 << 26) + 3, 1, (1 << 26) + (1 << 15) - 1, 5, 1 << 26]
    assert poly1305._join(limbs) == sum(
        limb << (26 * i) for i, limb in enumerate(limbs))


# Found by search (about one two-block message in four million): the
# last fold's carry leaves a limb at 2^26 with the next limb's bit 0
# set, where an OR join of the limbs gives a wrong tag.
CARRIED_INTO_NEXT_LIMB = [
    ("456d6e8325ab05a1c2907537c1b54b890ee97a2aa9c3072e78d48118cb66c156",
     "06b18bdee9c16faf460bf7a099d331844cb3795959bcec3736aa7869a365e5e6"),
    ("c720a518fb9495a4a2501a2549e4cfc28756f78ffda0c42876c16ace2b658ddb",
     "f1fb87d7f1cdd03d3a345c7fa9a11ba6c64a2c568c1d40f1acc22f6ef940a23a"),
]


@needs_numpy
@pytest.mark.parametrize("key, message", CARRIED_INTO_NEXT_LIMB,
                         ids=["first", "second"])
def test_a_limb_carried_into_the_next_keeps_the_tag(
        monkeypatch, key, message):
    key, message = bytes.fromhex(key), bytes.fromhex(message)
    force_tier(monkeypatch, "lanes")
    assert poly1305_macs([key], [message]) == \
        [poly1305_reference(key, message)]


@needs_numpy
def test_a_message_past_the_row_cap_takes_more_lanes(monkeypatch):
    """Longer than ``_ROWS_MAX`` rows of ``_LANES`` blocks: the lanes
    double instead of the rows growing past what a uint64 sum holds;
    beside a short message that pads to it."""
    long = random.Random(9).randbytes(
        16 * poly1305._LANES * poly1305._ROWS_MAX + 17)
    keys = [b"\xFF" * 32, bytes(range(32))]
    force_tier(monkeypatch, "lanes")
    assert poly1305_macs(keys, [long, b"short"]) == \
        [poly1305_reference(keys[0], long),
         poly1305_reference(keys[1], b"short")]


@needs_numpy
def test_each_record_takes_the_tier_of_its_own_length(monkeypatch):
    """A MAC pass pads every record to its longest, so one 16 KiB record
    among short ones rides the lanes alone and the short ones take the
    scalar tier, as they would on their own."""
    short = [b"\x17" * 40] * 15
    lane, scalar = [], []
    _counting(monkeypatch, poly1305, "_macs_lanes", lane)
    _counting(monkeypatch, poly1305, "_mac_scalar", scalar)
    keys = [bytes(range(32))] * 16
    assert poly1305_macs(keys, [bytes(RECORD)] + short) == \
        [poly1305_reference(key, message)
         for key, message in zip(keys, [bytes(RECORD)] + short)]
    assert lane == [1] and len(scalar) == 15

    ghash = Ghash(bytes(range(16)))
    runs, single = [], []
    kernel, one = Ghash._digests_lanes, Ghash._digest_scalar
    monkeypatch.setattr(Ghash, "_digests_lanes", lambda self, run: (
        runs.append(len(run)), kernel(self, run))[1])
    monkeypatch.setattr(Ghash, "_digest_scalar", lambda self, *record: (
        single.append(record), one(self, *record))[1])
    assert ghash.digests([b"hdr"] * 16, [bytes(RECORD)] + short) == \
        [ghash.digest_reference(b"hdr", ciphertext)
         for ciphertext in [bytes(RECORD)] + short]
    assert runs == [1] and len(single) == 15


def _one_read(cipher_name):
    """The wire records of one busy read, cut apart: stream A, a PING
    inside A's run (a control record where the receiver guessed data),
    more of A, stream B attached and sending (the run switches streams
    mid-read), A again -- and one record of A's first run tampered."""
    keys = {"key": b"\x11" * 16, "peer_key": b"\x33" * 16} \
        if cipher_name == "aes128gcm" else {}
    client, conn = bootstrap_ready_session(
        is_client=True, cipher_name=cipher_name, record_payload=700, **keys)
    first = client.create_stream(conn)
    first.send(bytes(range(256)) * 11)
    client.ping(conn, b"probe")
    first.send(b"A" * 1400)
    second = client.create_stream(conn)
    second.send(b"B" * 2000)
    first.send(b"a" * 650)
    records = RecordReassembler().feed(conn.tcp.take_sent())
    assert len(records) > 12
    tampered = bytearray(records[3])
    tampered[40] ^= 0x20
    records[3] = bytes(tampered)

    def receive(chunks, watch=lambda server: None):
        server, sconn = bootstrap_ready_session(
            is_client=False, cipher_name=cipher_name, record_payload=700,
            **keys)
        sink = CaptureSink()
        server.bus.subscribe(sink, categories=("tls",))
        watch(server)
        for chunk in chunks:
            server.bytes_received(sconn, chunk)
        return (
            {stream_id: (bytes(stream.recv_buffer),
                         list(stream.recv_decrypted),
                         stream.ctx_recv.tag_trials, stream.ctx_recv.tag_hits)
             for stream_id, stream in server.streams.items()},
            [(event.name, event.data) for event in sink],
            server.stats,
        )
    return records, receive


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("cipher_cls", AEADS)
def test_one_read_is_its_records_one_at_a_time(
        monkeypatch, cipher_cls, tier):
    """Plaintexts, trial counts, ``record_opened`` / ``record_rejected``
    events and stats do not depend on how many records shared a read:
    a guessed pad only ever saves work.  The tampered record is
    rejected, its neighbours are accepted."""
    force_tier(monkeypatch, tier)
    records, receive = _one_read(cipher_cls.name)
    at_once = receive([b"".join(records)])
    assert at_once == receive(records)
    streams, events, stats = at_once
    assert [name for name, _ in events].count("record_rejected") == 1 \
        == stats["demux_drops"]
    assert events[3][0] == "record_rejected"
    assert events[2][0] == events[4][0] == "record_opened"
    assert stats["records_received"] == len(records)
    assert b"B" * 2000 in [buffer for buffer, *_ in streams.values()]


def _counting(monkeypatch, module, name, counts):
    """Wrap ``module.name`` (a kernel taking a list first) to append
    the length of that list to ``counts`` on every call."""
    kernel = getattr(module, name)
    monkeypatch.setattr(module, name, lambda first, *rest: (
        counts.append(len(first)), kernel(first, *rest))[1])


@needs_numpy
@pytest.mark.parametrize("cipher_cls", [Chacha20Poly1305, Aes128Gcm])
def test_guessed_pads_serve_the_run_and_only_the_run(
        monkeypatch, cipher_cls):
    """The helped property, counted: of the records of the busy read,
    those that continue a data stream are opened with a pad and a tag
    made ahead; a record after a wrong guess, and every control record,
    is not.  A ChaCha20-Poly1305 guessed run's tags are one Poly1305
    lane pass.  The tampered record sits inside a guessed run: its
    precomputed tag does not match, it is rejected, and its neighbours
    are accepted with theirs."""
    force_tier(monkeypatch, "lanes")
    records, receive = _one_read(cipher_cls.name)
    opened, tried, macs, runs = [], [], [], []
    _counting(monkeypatch, poly1305, "_macs_lanes", macs)

    def watch(server):
        cipher = server._recv_key
        crypt, finish_tags = cipher.crypt, cipher.finish_tags
        process = server._process_record
        cipher.crypt = lambda nonce, data, pad=None: (
            opened.append(pad is not None), crypt(nonce, data, pad))[1]

        def counted_finish_tags(*run):
            """The Poly1305 lane passes one guessed run's tags took."""
            before = len(macs)
            tags = finish_tags(*run)
            runs.append(len(macs) - before)
            return tags

        def watched_process(conn, record, trial=None):
            """(did the record ride a guess, was it accepted)"""
            accepted = process(conn, record, trial)
            tried.append((trial is not None and trial._ahead is not None,
                          accepted is not None))
            return accepted

        cipher.finish_tags = counted_finish_tags
        server._process_record = watched_process

    _, events, _ = receive([b"".join(records)], watch)
    accepted = [data for name, data in events if name == "record_opened"]
    assert len(opened) == len(accepted) == len(records) - 1
    on_data_stream = [data["type"] == RECORD_TYPE_STREAM_DATA
                      for data in accepted]
    assert not any(ahead for ahead, is_data in zip(opened, on_data_stream)
                   if not is_data)
    # most of the data records rode a guess, and some guesses were wrong
    assert sum(on_data_stream) > sum(opened) > sum(on_data_stream) / 2
    assert tried[3] == (True, False)
    assert tried[2] == tried[4] == (True, True)
    # one Poly1305 lane pass per guessed run (GHASH has no nonce part)
    assert runs and set(runs) == {1 if cipher_cls is Chacha20Poly1305
                                  else 0}
    # a cipher with nothing to make ahead is never asked to
    opened.clear()
    monkeypatch.setattr(lanes, "_np", None)
    receive([b"".join(records)], watch)
    assert opened and not any(opened)


@needs_numpy
@pytest.mark.parametrize("pass_records", [16, 4])
def test_one_ghash_pass_per_lane_pass_of_a_read(monkeypatch, pass_records):
    """AES-GCM: a read's records are hashed before their trials, one
    GHASH lane pass per lane pass of records; no record is hashed on
    its own, and a wrong guess costs no GHASH."""
    force_tier(monkeypatch, "lanes")
    monkeypatch.setattr(lanes, "PASS_RECORDS", pass_records)
    records, receive = _one_read("aes128gcm")
    passes, single, receiver = [], [], []
    kernel = Ghash._digests_lanes
    monkeypatch.setattr(Ghash, "_digests_lanes", lambda ghash, run: (
        ghash in receiver and passes.append(len(run)), kernel(ghash, run))[1])

    def watch(server):
        cipher = server._recv_key
        receiver.append(cipher._ghash)
        mac_state = cipher.mac_state
        cipher.mac_state = lambda *args: (single.append(args),
                                          mac_state(*args))[1]

    receive([b"".join(records)], watch)
    assert passes == [len(run) for run in lanes.passes(records)]
    assert not single


@needs_numpy
def test_eight_16k_records_seal_in_one_lane_pass(monkeypatch):
    """ChaCha20-Poly1305: the eight keystreams *and* the eight Poly1305
    keys (block 0 of each nonce) come out of one pass, and the eight
    tags out of one Poly1305 lane pass; no scalar block or MAC is
    computed beside them."""
    passes, macs, scalar = [], [], []
    lane_kernel = chacha20._keystream_lanes
    monkeypatch.setattr(chacha20, "_keystream_lanes", lambda key, requests: (
        passes.append(len(requests)), lane_kernel(key, requests))[1])
    _counting(monkeypatch, chacha20, "_keystream_swar", scalar)
    _counting(monkeypatch, poly1305, "_mac_scalar", scalar)
    _counting(monkeypatch, poly1305, "_macs_lanes", macs)
    monkeypatch.setattr(chacha20, "chacha20_block", scalar.append)
    context = StreamCryptoContext(
        Chacha20Poly1305(bytes(range(32))), bytes(range(12)), 3)
    wires = context.seal_many([bytes([i]) * RECORD for i in range(8)])
    assert passes == macs == [8] and not scalar
    # and more records than a pass holds are cut, not grown
    context.seal_many([b"x" * RECORD] * (2 * lanes.PASS_RECORDS + 1))
    assert passes == macs == [8, lanes.PASS_RECORDS, lanes.PASS_RECORDS, 1]
    assert len(wires) == 8 and not scalar


def _functions_mentioning(module, name):
    tree = ast.parse(inspect.getsource(module))
    return sorted(
        definition.name for definition in ast.walk(tree)
        if isinstance(definition, ast.FunctionDef)
        and any(getattr(node, "id", getattr(node, "attr", None)) == name
                for node in ast.walk(definition)))


def test_one_lane_kernel_per_module():
    """The multi-request kernels replaced the single-request ones: each
    module has one lane kernel and one dispatcher that calls it, the
    single MAC is its batch of one, and a run and a single record share
    one authentication body (at the cipher and at the record layer)."""
    assert _functions_mentioning(chacha20, "_quarter_round_lanes") == \
        ["_keystream_lanes"]
    assert _functions_mentioning(chacha20, "_keystream_lanes") == \
        ["chacha20_keystreams"]
    assert _functions_mentioning(chacha20, "_keystream_swar") == \
        ["chacha20_keystreams"]
    assert _functions_mentioning(aes, "_lane_rounds") == \
        ["_ctr_keystream_lanes"]
    assert _functions_mentioning(aes, "_ctr_keystream_lanes") == \
        ["ctr_keystreams"]
    assert _functions_mentioning(aes, "_encrypt_words") == \
        ["ctr_keystreams", "encrypt_block"]
    assert _functions_mentioning(poly1305, "_macs_lanes") == \
        ["poly1305_macs"]
    assert _functions_mentioning(poly1305, "_mac_scalar") == \
        ["poly1305_macs"]
    assert _functions_mentioning(poly1305, "poly1305_macs") == \
        ["poly1305_mac"]
    assert _functions_mentioning(gcm, "_digests_lanes") == ["digests"]
    assert _functions_mentioning(gcm, "_digest_scalar") == ["digests"]
    assert _functions_mentioning(gcm, "_power_tables") == \
        ["_digests_lanes"]
    assert _functions_mentioning(gcm, "digests") == \
        ["digest", "mac_states"]
    for gone in ("_lane_chains", "_lane_table"):
        assert not hasattr(Ghash, gone)
    # one authentication body: a record sealed on its own is a run of
    # one, a run of wire records is a run with its headers added, and
    # only the run folds and finishes tags -- except that the null-tag
    # cipher, with nothing to batch, seals record by record
    assert _functions_mentioning(aead, "seal_many") == \
        ["seal", "seal_records"]
    assert _functions_mentioning(aead, "mac_states") == ["seal_many"]
    assert _functions_mentioning(aead, "finish_tags") == ["seal_many"]
    assert _functions_mentioning(aead, "mac_state") == \
        ["mac_states", "seal", "seal_records"]  # the run's, null-tag's
    assert _functions_mentioning(crypto_context, "seal_records") == \
        ["seal", "seal_many", "seal_records"]   # ... cipher.seal_records
    assert _functions_mentioning(crypto_context, "encode_record_header") \
        == ["seal_records"]


def test_aead_suite_passes_without_numpy():
    """The rest of this directory in an interpreter whose crypto modules
    found no numpy (``lanes._np`` is ``None``, as after a failed import):
    what an install without the ``fast`` extra runs."""
    here = os.path.dirname(os.path.abspath(__file__))
    script = (
        "import sys, pytest\n"
        "from repro.crypto import lanes\n"
        "lanes._np = None\n"
        "sys.exit(pytest.main(['-q', '-x', '-p', 'no:cacheprovider', %r,\n"
        "                      '-k', 'not without_numpy']))\n" % here
    )
    result = subprocess.run(
        [sys.executable, "-c", script], timeout=600,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        cwd=os.path.dirname(os.path.dirname(here)),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    assert result.returncode == 0, result.stdout[-4000:]
