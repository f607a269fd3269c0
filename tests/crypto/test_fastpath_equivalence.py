"""Property tests: every crypto fast path is byte-identical to the
retained reference implementation.

Each bulk primitive has two tiers -- a big-int/scalar one for short
inputs and installs without numpy, and a lane one (numpy arrays, or four
blocks per reduction for Poly1305) for long inputs -- and one crossover
constant, ``_LANE_MIN_BLOCKS``, choosing between them.  All keep their
original implementations as oracles; Hypothesis drives random
keys/nonces/AAD/lengths through both tiers and across every crossover
and demands equality.  A deterministic 65536-byte case covers the
large-batch paths explicitly.

The last section is the batch: a run of records shares one lane pass on
seal (``seal_many``) and, by guessing the nonces, on open
(``TcplsEngine._process_records``).  Both are pinned byte for byte and
event for event against the same records taken one at a time, in every
tier.
"""

import ast
import inspect
import math
import os
import subprocess
import sys

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import crypto_context
from repro.core.crypto_context import StreamCryptoContext
from repro.core.record import RECORD_TYPE_STREAM_DATA
from repro.core.engine import bootstrap_ready_session
from repro.crypto import aead, aes, chacha20, gcm, lanes, poly1305
from repro.crypto.aead import Aes128Gcm, Chacha20Poly1305, NullTagCipher
from repro.crypto.aes import Aes128
from repro.crypto.chacha20 import (
    chacha20_block,
    chacha20_block_reference,
    chacha20_encrypt,
)
from repro.crypto.gcm import Ghash
from repro.crypto.poly1305 import P1305, poly1305_mac
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


def around_crossover(module, block_size):
    """Byte strings from one block below ``module``'s crossover to one
    block above it, ragged tails included."""
    blocks = module._LANE_MIN_BLOCKS
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


@given(key=KEY32, message=around_crossover(poly1305, 16), buffer=BUFFER)
@settings(max_examples=60, deadline=None)
def test_poly1305_across_the_crossover(key, message, buffer):
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
    H^64 table with the first lane-sized input; the digests are the
    reference's all along."""
    ghash = Ghash(bytes(range(16)))
    block = bytes(range(16))          # two multiplications a digest
    for _ in range((gcm._TABLE_MIN_MULTS - 1) // 2):
        assert ghash.digest(b"", block) == ghash.digest_reference(b"", block)
    assert ghash._tables is None and "_lane_table" not in vars(ghash)
    assert ghash.digest(b"", block) == ghash.digest_reference(b"", block)
    assert ghash._tables is not None and "_lane_table" not in vars(ghash)
    if lanes.numpy() is not None:
        long = bytes(16 * gcm._LANE_MIN_BLOCKS)
        assert ghash.digest(b"hdr", long) == \
            ghash.digest_reference(b"hdr", long)
        assert "_lane_table" in vars(ghash)


# -- one lane pass per batch of records -----------------------------------

AEADS = [Chacha20Poly1305, Aes128Gcm, NullTagCipher]
TIERS = ["short", "lanes", "no-numpy"]
RECORD = 16384
# empty, one byte, around a ChaCha20 and an AES block, ragged, a whole
# 16 KiB record and its neighbours
LENGTH = st.sampled_from([0, 1, 15, 16, 17, 63, 64, 65, 100, 1000, 1500,
                          2571, RECORD - 1, RECORD])


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("cipher_cls", AEADS)
@given(key=KEY32, lengths=st.lists(LENGTH, min_size=1, max_size=20),
       data=st.data())
@settings(max_examples=12, deadline=None)
def test_seal_many_is_seal_record_by_record(
        cipher_cls, tier, key, lengths, data):
    """A run sealed with the pads of one pass, sealed one by one and
    sealed straight from the specification: the same bytes, whatever
    lengths share a pass."""
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
        pads = cipher.pads(nonces, lengths) if cipher.pads \
            else [None] * len(lengths)
        sealed = [cipher.seal(*record)
                  for record in zip(nonces, plaintexts, aads, pads)]
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


@needs_numpy
@pytest.mark.parametrize("cipher_cls", [Chacha20Poly1305, Aes128Gcm])
def test_guessed_pads_serve_the_run_and_only_the_run(
        monkeypatch, cipher_cls):
    """The helped property, counted: of the records of the busy read,
    those that continue a data stream are opened with a pad made ahead;
    a record after a wrong guess, and every control record, is not."""
    force_tier(monkeypatch, "lanes")
    records, receive = _one_read(cipher_cls.name)
    opened = []

    def watch(server):
        cipher = server._recv_key
        crypt = cipher.crypt
        cipher.crypt = lambda nonce, data, pad=None: (
            opened.append(pad is not None), crypt(nonce, data, pad))[1]

    _, events, _ = receive([b"".join(records)], watch)
    accepted = [data for name, data in events if name == "record_opened"]
    assert len(opened) == len(accepted) == len(records) - 1
    on_data_stream = [data["type"] == RECORD_TYPE_STREAM_DATA
                      for data in accepted]
    assert not any(ahead for ahead, is_data in zip(opened, on_data_stream)
                   if not is_data)
    # most of the data records rode a guess, and some guesses were wrong
    assert sum(on_data_stream) > sum(opened) > sum(on_data_stream) / 2
    # a cipher with nothing to make ahead is never asked to
    opened.clear()
    monkeypatch.setattr(lanes, "_np", None)
    receive([b"".join(records)], watch)
    assert opened and not any(opened)


@needs_numpy
def test_eight_16k_records_seal_in_one_lane_pass(monkeypatch):
    """ChaCha20-Poly1305: the eight keystreams *and* the eight Poly1305
    keys (block 0 of each nonce) come out of one pass; no scalar block
    is computed beside it."""
    passes, scalar = [], []
    lane_kernel, swar_kernel = chacha20._keystream_lanes, \
        chacha20._keystream_swar
    monkeypatch.setattr(chacha20, "_keystream_lanes", lambda key, requests: (
        passes.append(len(requests)), lane_kernel(key, requests))[1])
    monkeypatch.setattr(chacha20, "_keystream_swar", lambda *args: (
        scalar.append(args), swar_kernel(*args))[1])
    monkeypatch.setattr(chacha20, "chacha20_block", scalar.append)
    context = StreamCryptoContext(
        Chacha20Poly1305(bytes(range(32))), bytes(range(12)), 3)
    wires = context.seal_many([bytes([i]) * RECORD for i in range(8)])
    assert passes == [8] and not scalar
    # and more records than a pass holds are cut, not grown
    context.seal_many([b"x" * RECORD] * (2 * lanes.PASS_RECORDS + 1))
    assert passes == [8, lanes.PASS_RECORDS, lanes.PASS_RECORDS, 1]
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
    module has one function that runs the rounds and one that calls it,
    and the record layer has one body for ``seal`` and ``seal_many``."""
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
    # every cipher's seal is the base class's, and a run is sealed by
    # the body that seals one record
    assert _functions_mentioning(aead, "mac_state") == ["seal"]
    assert _functions_mentioning(crypto_context, "seal") == \
        ["seal", "seal_many"]       # cipher.seal, then self.seal
    assert _functions_mentioning(crypto_context, "encode_record_header") \
        == ["seal"]


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
