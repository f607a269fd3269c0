"""Prepared tag trials: authenticate one record against many nonces.

TCPLS keeps the stream id off the wire; the receiver finds it by
trying the record's authentication tag under each candidate
``(stream, sequence)`` nonce (Sec. 3.3.1 of the paper).  Key, AAD and
ciphertext are the same for every candidate -- only the nonce differs
-- so whatever part of the tag does not depend on the nonce is computed
**once per record** (:meth:`mac_state`) and each candidate only
finishes it (:meth:`finish_tag`).

A cipher takes part by providing four primitives:

- ``mac_state(ciphertext, aad)`` -- the nonce-independent part;
- ``pads(nonces, lengths)`` -- the part that depends on the nonce
  *alone* (keystream, one-time MAC key), for a whole run of records in
  one lane pass;
- ``finish_tag(state, nonce, pad=None)`` -- the tag under one nonce;
- ``crypt(nonce, data, pad=None)`` -- the unauthenticated
  en/decryption.

The last two work their pad out from the nonce unless handed one.  A
sender knows the nonces of a run before it seals, so the record layer's
``seal_many`` asks for all the pads at once; a receiver can only guess them (the stream a
read's last record belonged to, at the next sequences), so a guessed
``(nonce, pad)`` rides in the record's trial and serves only the
candidate whose nonce is that one.

Sealing, opening and one-off verification are all built from the same
four calls, so each cipher has exactly one authentication
implementation.
"""

from hmac import compare_digest


class TagTrial:
    """One received ``ciphertext || tag``, prepared for tag trials."""

    __slots__ = ("_cipher", "_ciphertext", "_tag", "_state",
                 "_ahead_nonce", "_ahead_pad")

    def __init__(self, cipher, data, aad=b"", ahead=None):
        self._cipher = cipher
        self._ahead_nonce, self._ahead_pad = ahead or (None, None)
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
            self._cipher.finish_tag(
                self._state, nonce,
                self._ahead_pad if nonce == self._ahead_nonce else None),
            tag)

    def plaintext(self, nonce):
        """Decrypt **without authenticating**: only for a ``nonce`` that
        :meth:`matches` has just accepted."""
        return self._cipher.crypt(
            nonce, self._ciphertext,
            self._ahead_pad if nonce == self._ahead_nonce else None)
