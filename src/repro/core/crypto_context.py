"""Per-stream cryptographic contexts (Fig. 2 of the paper).

TCPLS keeps the single TLS 1.3 application traffic *key* (adding keys
would degrade AEAD security bounds, Sec. 3.3.1) and derives one IV per
stream:

- the left-most 32 bits of the handshake-derived IV are **summed** with
  the 32-bit stream id (mod 2^32);
- the right-most 64 bits are **XORed** with the per-stream record
  sequence number at seal/open time.

Each stream having its own sequence space, every record of every stream
gets a unique nonce.  The stream id stays implicit on the wire: the
receiver recovers it by trying authentication tags (cheap for
Encrypt-then-MAC AEADs) against candidate contexts.
"""

import struct

from repro.crypto.tagtrial import TagTrial
from repro.tls.record import (
    RECORD_HEADER_SIZE,
    encode_record_header,
    CONTENT_APPLICATION_DATA,
)


def derive_stream_iv(base_iv, stream_id):
    """Apply the Fig. 2 left-32-bit addition of the stream id."""
    if len(base_iv) != 12:
        raise ValueError("TLS 1.3 IVs are 12 bytes")
    (left,) = struct.unpack_from("!I", base_iv, 0)
    left = (left + stream_id) & 0xFFFFFFFF
    return struct.pack("!I", left) + base_iv[4:]


def record_nonce(stream_iv, record_seq):
    """XOR the 64-bit record sequence into the right-most IV bits."""
    (right,) = struct.unpack_from("!Q", stream_iv, 4)
    right ^= record_seq & 0xFFFFFFFFFFFFFFFF
    return stream_iv[:4] + struct.pack("!Q", right)


def prepare_record(cipher, record, ahead=None):
    """Split a wire record and fold the nonce-independent part of its
    tag, once, for :meth:`StreamCryptoContext.verify_at` under many
    candidates.

    The trial is bound to the cipher, not to a stream: every context
    sharing the traffic key can try it.  A record too short to carry a
    header and a tag matches nothing.  ``ahead`` is one
    :meth:`StreamCryptoContext.pads_ahead` entry: the nonce-dependent
    part too, for the one candidate the record is expected to be.
    """
    view = memoryview(record)
    return cipher.prepare(view[RECORD_HEADER_SIZE:],
                          bytes(view[:RECORD_HEADER_SIZE]), ahead)


class StreamCryptoContext:
    """Seal/open TCPLS records for one stream direction.

    One context per (stream, direction).  ``seal`` produces full TLS
    wire records; ``open_at`` / ``verify_at`` operate at an explicit
    record sequence, which is how the session layer implements both
    in-order decryption and the bounded trial window used across stream
    steering and failover replay.  The receiver runs
    :func:`prepare_record` once per record, so the whole window costs
    one MAC pass.
    """

    def __init__(self, cipher, base_iv, stream_id):
        self.cipher = cipher
        self.stream_id = stream_id
        self.stream_iv = derive_stream_iv(base_iv, stream_id)
        # Nonce fast path: the left 4 IV bytes never change and the
        # right 64 bits are unpacked once, so per-record nonces are one
        # XOR + pack instead of two struct round-trips.
        self._iv_left = self.stream_iv[:4]
        (self._iv_right,) = struct.unpack_from("!Q", self.stream_iv, 4)
        self.send_seq = 0
        self.tag_trials = 0
        self.tag_hits = 0

    def _nonce(self, record_seq):
        right = self._iv_right ^ (record_seq & 0xFFFFFFFFFFFFFFFF)
        return self._iv_left + right.to_bytes(8, "big")

    def seal(self, inner_plaintext, pad=None):
        """Encrypt at the next send sequence; returns full record bytes.
        ``pad`` is the record's share of a :meth:`seal_many` pass."""
        cipher = self.cipher
        header = encode_record_header(
            CONTENT_APPLICATION_DATA, len(inner_plaintext) + cipher.tag_size)
        sealed = cipher.seal(self._nonce(self.send_seq), inner_plaintext,
                             header, pad)
        self.send_seq += 1
        return header + sealed

    def seal_many(self, inner_plaintexts):
        """:meth:`seal` for consecutive records.

        The nonces of the whole run are known before the first byte is
        encrypted, so a cipher with pads makes every keystream and
        one-time key of the run in one lane pass, ahead of the records.
        """
        if not self.cipher.pads:
            return [self.seal(inner) for inner in inner_plaintexts]
        ahead = self.pads_ahead(self.send_seq,
                                list(map(len, inner_plaintexts)))
        return [self.seal(inner, pad)
                for inner, (_, pad) in zip(inner_plaintexts, ahead)]

    def pads_ahead(self, first_seq, lengths):
        """``(nonce, pad)`` of records of ``lengths`` ciphertext bytes
        at consecutive sequences from ``first_seq``, in one lane pass.
        The sender knows its run (:meth:`seal_many`); the receiver
        guesses that the records of a read continue one stream and
        hands each entry to :func:`prepare_record` as ``ahead``."""
        nonces = [self._nonce(first_seq + i) for i in range(len(lengths))]
        return list(zip(nonces, self.cipher.pads(nonces, lengths)))

    def open_at(self, record, record_seq):
        """Decrypt a full wire record at an explicit sequence.

        Raises :class:`~repro.crypto.aead.AeadAuthenticationError` if
        the record does not belong to this (stream, seq).
        """
        view = memoryview(record)
        header = bytes(view[:RECORD_HEADER_SIZE])
        ciphertext = view[RECORD_HEADER_SIZE:]
        nonce = self._nonce(record_seq)
        return self.cipher.open(nonce, ciphertext, aad=header)

    def verify_at(self, record, record_seq):
        """Tag-only trial (no plaintext produced).

        ``record`` is the wire bytes or, when one record is tried
        against many (stream, seq) candidates, its
        :func:`prepare_record` trial -- each candidate then costs
        O(tag), not O(record).
        """
        self.tag_trials += 1
        trial = record if isinstance(record, TagTrial) \
            else prepare_record(self.cipher, record)
        if trial.matches(self._nonce(record_seq)):
            self.tag_hits += 1
            return True
        return False

    def open_verified(self, trial, record_seq):
        """Plaintext of a trial that :meth:`verify_at` has just matched
        at ``record_seq``; the tag is not checked a second time."""
        return trial.plaintext(self._nonce(record_seq))

    def try_open(self, record, record_seq):
        """verify + open in one MAC pass; returns plaintext or None."""
        trial = prepare_record(self.cipher, record)
        if not self.verify_at(trial, record_seq):
            return None
        return self.open_verified(trial, record_seq)
