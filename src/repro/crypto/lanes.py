"""numpy for the lane tiers, imported when a lane kernel first asks.

``import numpy`` costs about as much as importing the rest of this
package, and a process that only ever seals with the null-tag cipher
(every simulated experiment) never reaches a lane tier.  The three
numpy-tiered modules (:mod:`~repro.crypto.chacha20`,
:mod:`~repro.crypto.aes`, :mod:`~repro.crypto.gcm`) ask :func:`numpy`
instead of importing it; the answer is resolved once and kept here.

A lane kernel takes a *list* of requests -- one ``(counter, nonce,
blocks)`` run per record -- and lays them side by side as array columns,
so the few hundred array operations of a pass are paid once per batch
of records, not once per record (:data:`PASS_RECORDS`).
"""

#: ``False`` until first asked; then the module, or ``None`` on an
#: install without numpy (every tiered module falls back to its
#: wide-integer tier).
_np = False


def numpy():
    """The numpy module, or ``None`` where it is not installed."""
    global _np
    if _np is False:
        try:
            import numpy
        except ImportError:  # pragma: no cover - numpy ships with the image
            numpy = None
        _np = numpy
    return _np


#: Most records whose keystreams share one lane pass; a longer run is
#: cut into passes of this many.  Measured, us per 16 KiB record by
#: records per pass (ChaCha20 with block 0 / AES-CTR with J0): 1:
#: 303 / 372, 2: 160 / 326, 4: 117 / 280, 8: 106 / 247, 16: 94 / 253,
#: 32: 100 / 286, 64: 95 / 305.  Both curves are flat by 16 (the AES
#: gathers turn up again once their planes leave the cache) and the
#: arrays of a pass take ~80 KB per record, so that is the cap: 1.3 MB
#: of transient arrays, and what a receiver's wrong guess can waste
#: (see ``TcplsEngine._process_records``) is one pass, under 5 ms.
PASS_RECORDS = 16


def passes(requests):
    """``requests`` cut into the runs that each share one lane pass."""
    return [requests[i:i + PASS_RECORDS]
            for i in range(0, len(requests), PASS_RECORDS)]


def xor(data, stream):
    """``data`` XOR a same-or-longer keystream: one array operation,
    or without numpy one wide-integer operation."""
    n = len(data)
    if not n:
        return b""
    _np = numpy()
    if _np is None:
        return (int.from_bytes(data, "big")
                ^ int.from_bytes(stream[:n], "big")).to_bytes(n, "big")
    return (_np.frombuffer(data, dtype=_np.uint8)
            ^ _np.frombuffer(stream, dtype=_np.uint8, count=n)).tobytes()
