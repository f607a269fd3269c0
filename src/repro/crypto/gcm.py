"""Galois/Counter Mode (NIST SP 800-38D) over AES-128.

Hot-path layout: GHASH is table-driven -- key setup precomputes, per
byte position, a 256-entry table of GF(2^128) products, so hashing one
16-byte block costs 16 table lookups and XORs instead of the 127-round
per-bit loop.  The per-bit loop (:func:`_gf_mult`) and
:meth:`Ghash.digest_reference` are retained as the cross-validation
oracle (tests/crypto/test_fastpath_equivalence.py proves the two paths
byte-identical on random inputs).

CTR keystream generation is batched through
:meth:`~repro.crypto.aes.Aes128.ctr_keystream` and the plaintext XOR is
done as one wide integer operation instead of a per-byte generator.
"""

import struct

from repro.crypto.aes import Aes128
from repro.crypto.tagtrial import TagTrial

_R = 0xE1000000000000000000000000000000


def _gf_mult(x, y):
    """Carry-less multiplication in GF(2^128) with the GCM polynomial.

    Reference implementation (per-bit); the sealing path uses the
    precomputed tables below.
    """
    z = 0
    v = x
    for i in range(127, -1, -1):
        if (y >> i) & 1:
            z ^= v
        if v & 1:
            v = (v >> 1) ^ _R
        else:
            v >>= 1
    return z


def _build_ghash_tables(h):
    """16 tables of 256 entries: ``tables[k][b] = (b << 8*(15-k)) * H``.

    GF(2^128) multiplication is linear over the input bits, so the
    product ``X * H`` is the XOR of per-byte contributions.  Single-bit
    multiples come from repeated multiplication by x (a shift with
    conditional reduction); byte tables build incrementally from their
    lowest set bit, so construction is ~4k XORs, not 4k field mults.
    """
    mult = [0] * 128          # mult[i] = (1 << i) * H, integer bit index
    v = h
    for i in range(127, -1, -1):
        mult[i] = v
        v = (v >> 1) ^ _R if v & 1 else v >> 1
    tables = []
    for k in range(16):       # byte position, 0 = most significant
        base = 8 * (15 - k)
        table = [0] * 256
        for b in range(1, 256):
            low = b & -b
            table[b] = table[b ^ low] ^ mult[base + low.bit_length() - 1]
        tables.append(table)
    return tables


class Ghash:
    """GHASH universal hash keyed by H = E_K(0^128)."""

    def __init__(self, h_key):
        self._h = int.from_bytes(h_key, "big")
        self._tables = _build_ghash_tables(self._h)

    def _mul_h(self, x):
        """Table-driven ``x * H``: one lookup per input byte."""
        y = 0
        shift = 120
        for table in self._tables:
            y ^= table[(x >> shift) & 0xFF]
            shift -= 8
        return y

    def _fold(self, y, data):
        """Absorb ``data`` block-by-block without materialising a padded
        block list; the tail is padded arithmetically (a left shift) in
        place of a scratch copy."""
        n = len(data)
        full = n - (n % 16)
        mul_h = self._mul_h
        for i in range(0, full, 16):
            y = mul_h(y ^ int.from_bytes(data[i:i + 16], "big"))
        if full != n:
            tail = int.from_bytes(data[full:], "big") << (8 * (16 - n + full))
            y = mul_h(y ^ tail)
        return y

    def digest(self, aad, ciphertext):
        y = self._fold(0, aad)
        y = self._fold(y, ciphertext)
        lengths = struct.pack("!QQ", len(aad) * 8, len(ciphertext) * 8)
        y = self._mul_h(y ^ int.from_bytes(lengths, "big"))
        return y.to_bytes(16, "big")

    def digest_reference(self, aad, ciphertext):
        """Per-bit reference GHASH (validation oracle for the tables)."""
        h = self._h
        y = 0
        for data in (aad, ciphertext):
            n = len(data)
            full = n - (n % 16)
            for i in range(0, full, 16):
                y = _gf_mult(y ^ int.from_bytes(data[i:i + 16], "big"), h)
            if full != n:
                tail = int.from_bytes(data[full:], "big") \
                    << (8 * (16 - n + full))
                y = _gf_mult(y ^ tail, h)
        lengths = struct.pack("!QQ", len(aad) * 8, len(ciphertext) * 8)
        y = _gf_mult(y ^ int.from_bytes(lengths, "big"), h)
        return y.to_bytes(16, "big")


def _xor_bytes(data, stream):
    """XOR ``data`` with a same-or-longer keystream as wide integers."""
    n = len(data)
    if not n:
        return b""
    if len(stream) != n:
        stream = stream[:n]
    return (int.from_bytes(data, "big")
            ^ int.from_bytes(stream, "big")).to_bytes(n, "big")


class AesGcm:
    """AES-128-GCM authenticated encryption with 12-byte nonces.

    The tag is ``GHASH_H(aad, ciphertext) XOR E_K(J0)``: only the one
    AES block depends on the nonce, so a :class:`TagTrial` pays GHASH
    once per record and one block encryption per candidate nonce.
    """

    tag_size = 16

    def __init__(self, key):
        self._aes = Aes128(key)
        self._ghash = Ghash(self._aes.encrypt_block(b"\x00" * 16))

    def mac_state(self, ciphertext, aad):
        """S = GHASH(aad, ciphertext): the nonce-independent tag part."""
        return self._ghash.digest(aad, ciphertext)

    def finish_tag(self, s, nonce):
        """S XOR E_K(J0): one AES block per nonce."""
        return _xor_bytes(
            s, self._aes.encrypt_block(nonce + b"\x00\x00\x00\x01"))

    def crypt(self, nonce, data):
        """CTR en/decryption from counter 2 (no authentication)."""
        n = len(data)
        if not n:
            return b""
        return _xor_bytes(
            data, self._aes.ctr_keystream(nonce, 2, (n + 15) // 16))

    def prepare(self, data, aad=b""):
        """Fold ``ciphertext || tag`` once for trials under many nonces."""
        return TagTrial(self, data, aad)

    def encrypt(self, nonce, plaintext, aad=b""):
        """Returns ciphertext || 16-byte tag."""
        if len(nonce) != 12:
            raise ValueError("GCM nonce must be 12 bytes")
        ciphertext = self.crypt(nonce, plaintext)
        return ciphertext + self.finish_tag(
            self.mac_state(ciphertext, aad), nonce)

    def decrypt(self, nonce, data, aad=b""):
        """Returns plaintext, or None if the tag does not verify."""
        trial = self.prepare(data, aad)
        return trial.plaintext(nonce) if trial.matches(nonce) else None
