"""Prepared tag trials: authenticate one record against many nonces.

TCPLS keeps the stream id off the wire; the receiver finds it by
trying the record's authentication tag under each candidate
``(stream, sequence)`` nonce (Sec. 3.3.1 of the paper).  Key, AAD and
ciphertext are the same for every candidate -- only the nonce differs
-- so whatever part of the tag does not depend on the nonce is computed
**once per record** (:meth:`mac_state`) and each candidate only
finishes it (:meth:`finish_tag`).

A cipher takes part by providing three primitives:

- ``mac_state(ciphertext, aad)`` -- the nonce-independent part;
- ``finish_tag(state, nonce)`` -- the tag under one nonce;
- ``crypt(nonce, data)`` -- the unauthenticated en/decryption.

Sealing, opening and one-off verification are all built from the same
three calls, so each cipher has exactly one authentication
implementation.
"""

from hmac import compare_digest


class TagTrial:
    """One received ``ciphertext || tag``, prepared for tag trials."""

    __slots__ = ("_cipher", "_ciphertext", "_tag", "_state")

    def __init__(self, cipher, data, aad=b""):
        self._cipher = cipher
        tag_size = cipher.tag_size
        if len(data) < tag_size:
            self._tag = None        # too short to carry a tag
            return
        view = memoryview(data)
        self._ciphertext = view[:-tag_size]
        self._tag = view[-tag_size:]
        self._state = cipher.mac_state(self._ciphertext, aad)

    def matches(self, nonce):
        """Constant-time: does the record authenticate under ``nonce``?"""
        tag = self._tag
        return tag is not None and compare_digest(
            self._cipher.finish_tag(self._state, nonce), tag)

    def plaintext(self, nonce):
        """Decrypt **without authenticating**: only for a ``nonce`` that
        :meth:`matches` has just accepted."""
        return self._cipher.crypt(nonce, self._ciphertext)
