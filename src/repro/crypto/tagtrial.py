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

and, for a run of records, ``mac_states`` / ``finish_tags``: the first
and third over every record of the run at once, in one MAC lane pass
where the cipher has one (GHASH is nonce-independent and batches in
``mac_states``; a Poly1305 key is the nonce's, so Poly1305 batches in
``finish_tags``).

The last two single-record primitives work their pad out from the
nonce unless handed one.  A sender knows the nonces of a run before it
seals, so it makes all the pads, then all the tags, at once
(``Aead.seal_many``).  A receiver prepares the trials of a read's
records in one ``mac_states`` pass (:meth:`TagTrial.run`) and can only
guess the nonces (the stream a read's last record belonged to, at the
next sequences): :meth:`TagTrial.expect` makes the guessed records'
pads and tags in one pass each and keeps each in its record's trial,
where it serves only the candidate whose nonce is the guessed one.

Sealing, opening and one-off verification are all built from these
calls, so each cipher has exactly one authentication implementation.
"""

from hmac import compare_digest


class TagTrial:
    """One received ``ciphertext || tag``, prepared for tag trials."""

    __slots__ = ("_cipher", "_ciphertext", "tag", "_state", "_ahead")

    def __init__(self, cipher, data, aad=b"", state=None):
        """``state`` is the record's ``mac_state`` where it was folded
        with its run's (:meth:`run`)."""
        self._cipher = cipher
        #: ``(nonce, pad, tag)`` made before the trials (:meth:`expect`),
        #: or ``None``: serves only the candidate with that nonce
        self._ahead = None
        tag_size = cipher.tag_size
        if len(data) < tag_size:
            #: the record's tag (a view of it), or ``None`` for a record
            #: too short to carry one
            self.tag = None
            return
        view = memoryview(data)
        self._ciphertext = view[:-tag_size]
        self.tag = view[-tag_size:]
        self._state = cipher.mac_state(self._ciphertext, aad) \
            if state is None else state

    @classmethod
    def run(cls, cipher, datas, aads):
        """One trial per record of a run, the nonce-independent parts of
        every tag folded in one ``mac_states`` pass."""
        tag_size = cipher.tag_size
        tagged = [i for i, data in enumerate(datas) if len(data) >= tag_size]
        states = dict(zip(tagged, cipher.mac_states(
            [memoryview(datas[i])[:-tag_size] for i in tagged],
            [aads[i] for i in tagged])))
        return [cls(cipher, data, aad, states.get(i))
                for i, (data, aad) in enumerate(zip(datas, aads))]

    @staticmethod
    def expect(trials, nonces):
        """Make each trial's pad and tag as if it were sealed under its
        nonce: every pad in one lane pass, every tag from them in one
        MAC pass.  A guess is the tag under that nonce whether or not
        the guess was right, so it stays with its trial; a trial too
        short to carry a tag gets none."""
        tagged = [(trial, nonce) for trial, nonce in zip(trials, nonces)
                  if trial.tag is not None]
        if not tagged:
            return
        run, guessed = zip(*tagged)
        cipher = run[0]._cipher
        pads = cipher.pads(guessed, [len(trial._ciphertext) for trial in run])
        tags = cipher.finish_tags([trial._state for trial in run], guessed,
                                  pads)
        for trial, ahead in zip(run, zip(guessed, pads, tags)):
            trial._ahead = ahead

    def matches(self, nonce):
        """Constant-time: does the record authenticate under ``nonce``?"""
        tag = self.tag
        if tag is None:
            return False
        ahead = self._ahead
        if ahead is not None and nonce == ahead[0]:
            return compare_digest(ahead[2], tag)
        return compare_digest(self._cipher.finish_tag(self._state, nonce),
                              tag)

    def plaintext(self, nonce):
        """Decrypt **without authenticating**: only for a ``nonce`` that
        :meth:`matches` has just accepted."""
        ahead = self._ahead
        return self._cipher.crypt(
            nonce, self._ciphertext,
            ahead[1] if ahead is not None and nonce == ahead[0] else None)
