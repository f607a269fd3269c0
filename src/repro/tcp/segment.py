"""TCP segments.

Segments are value objects: middleboxes produce modified copies via
:meth:`Segment.replace` rather than mutating in place, so a packet
duplicated on-path never aliases another packet's header.
"""

from repro.tcp.options import encode_options

TCP_HEADER_BYTES = 20

VALID_FLAGS = frozenset({"SYN", "ACK", "FIN", "RST", "PSH", "URG"})

_NO_FLAGS = frozenset()


class Segment:
    """One TCP segment.

    ``flags`` is a frozenset of flag names, ``options`` a tuple of
    :class:`~repro.tcp.options.TcpOption`, ``payload`` real bytes.
    """

    __slots__ = (
        "src_port", "dst_port", "seq", "ack", "flags", "window",
        "options", "payload",
    )

    def __init__(self, src_port, dst_port, seq=0, ack=0, flags=_NO_FLAGS,
                 window=65535, options=(), payload=b""):
        if flags is not _NO_FLAGS:
            flags = flags if type(flags) is frozenset else frozenset(flags)
            if not flags <= VALID_FLAGS:
                raise ValueError(
                    "unknown TCP flags: %s" % sorted(flags - VALID_FLAGS))
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.window = window
        self.options = tuple(options)
        # bytes and memoryview are immutable(-over-bytes) -- keep the
        # caller's object so SendBuffer.peek slices travel copy-free all
        # the way into the sealed record.
        self.payload = (payload if type(payload) in (bytes, memoryview)
                        else bytes(payload))

    @classmethod
    def data_segment(cls, src_port, dst_port, seq, ack, flags, window,
                     payload):
        """Option-less segment without validation: the constructor
        ``_try_send`` uses for new data and ``_send_ack`` for pure ACKs.

        ``flags`` must be one of the prebuilt frozensets from
        :mod:`repro.tcp.connection`; validation and option handling are
        skipped because a data burst shares one header template and
        only ``seq``/``payload`` vary per segment.
        """
        seg = cls.__new__(cls)
        seg.src_port = src_port
        seg.dst_port = dst_port
        seg.seq = seq
        seg.ack = ack
        seg.flags = flags
        seg.window = window
        seg.options = ()
        seg.payload = payload
        return seg

    def replace(self, **kwargs):
        """Copy with some fields replaced (middlebox-safe mutation)."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields.update(kwargs)
        return Segment(**fields)

    # -- flag helpers ----------------------------------------------------

    @property
    def is_syn(self):
        return "SYN" in self.flags

    @property
    def is_ack(self):
        return "ACK" in self.flags

    @property
    def is_fin(self):
        return "FIN" in self.flags

    @property
    def is_rst(self):
        return "RST" in self.flags

    # -- sizes -----------------------------------------------------------

    def options_size(self):
        raw = encode_options(self.options) if self.options else b""
        return len(raw)

    def header_size(self):
        return TCP_HEADER_BYTES + self.options_size()

    def wire_size(self):
        # Fast path for the (overwhelmingly common) no-options segment:
        # skip the encode_options round-trip entirely.
        if self.options:
            return self.header_size() + len(self.payload)
        return TCP_HEADER_BYTES + len(self.payload)

    def seq_space(self):
        """Sequence numbers consumed: payload plus SYN/FIN."""
        return len(self.payload) + (1 if self.is_syn else 0) + (
            1 if self.is_fin else 0
        )

    @property
    def end_seq(self):
        return self.seq + self.seq_space()

    def find_option(self, kind):
        """First option of the given kind, or None."""
        for option in self.options:
            if option.kind == kind:
                return option
        return None

    def __repr__(self):
        flags = "|".join(sorted(self.flags)) or "-"
        return "Segment(%d->%d %s seq=%d ack=%d len=%d)" % (
            self.src_port, self.dst_port, flags, self.seq, self.ack,
            len(self.payload),
        )
