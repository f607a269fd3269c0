"""numpy for the lane tiers, imported when a lane kernel first asks.

``import numpy`` costs about as much as importing the rest of this
package, and a process that only ever seals with the null-tag cipher
(every simulated experiment) never reaches a lane tier.  The three
numpy-tiered modules (:mod:`~repro.crypto.chacha20`,
:mod:`~repro.crypto.aes`, :mod:`~repro.crypto.gcm`) ask :func:`numpy`
instead of importing it; the answer is resolved once and kept here.
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
