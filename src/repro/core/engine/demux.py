"""Receive-side demultiplexing (Secs. 3.3.1, 4.1): the stream and the
sequence a record belongs to.

Records carry no stream id, so the receiver finds both by tag trial:
first each candidate stream's next expected sequence (the fast pass),
then a bounded window of sequences per stream (the slow pass), which is
what makes stream steering and failover replay work without explicit
wire signalling.

A failover replays every record its sender holds unacked (Fig. 4), and
the receiver has often opened many of them already: their ACKs died
with the path.  Such a duplicate authenticates at no sequence the trial
passes try, so it used to run the whole window of every stream before
it was rejected.  While failover is on, the replay index keeps the tag
of each STREAM_DATA record a stream opens, the last
:attr:`~repro.core.engine.session.TcplsEngine.trial_window` per stream
(read in order, exactly the sequences just below the next expected
one).  A record whose tag is there is tried once, at that ``(stream,
seq)``: if it authenticates, it is that record again and is rejected
as the trial passes would reject it; if not, it takes the passes.
"""

from collections import deque


class Demux:
    """One session's tag-trial demultiplexer (the session's ``demux``)."""

    def __init__(self, session):
        self.session = session
        #: bumped whenever the stream set or an attachment changes
        #: (invalidates every connection's cached trial order)
        self.epoch = 0
        #: the replay index: a tag -> the ``(stream, seq)`` it opened at
        self._opened = {}
        #: stream id -> the tags it indexed, oldest first
        self._tags = {}

    def renew(self, stream_id):
        """A stream ``stream_id`` was made: the stream set changed, and
        whatever an earlier stream of that id indexed goes with it."""
        self.epoch += 1
        opened = self._opened
        for tag in self._tags.pop(stream_id, ()):
            opened.pop(tag, None)

    def candidates(self, conn):
        """Streams in tag-trial order for a record arriving on ``conn``:
        the last stream seen there, its control stream, the other
        streams attached to it, then everything else.  Cached until the
        stream set, an attachment or ``conn.last_stream`` changes."""
        epoch, last, order = conn.demux_order
        if epoch == self.epoch and last is conn.last_stream:
            return order
        last = conn.last_stream
        head = [s for s in (last, conn.control_stream) if s is not None]
        if len(head) == 2 and head[0] is head[1]:
            del head[1]
        streams = [s for s in self.session.streams.values() if s not in head]
        order = tuple(head
                      + [s for s in streams if s.connection is conn]
                      + [s for s in streams if s.connection is not conn])
        conn.demux_order = (self.epoch, last, order)
        return order

    def find(self, conn, trial):
        """The ``(stream, seq)`` the record of ``trial`` authenticates
        at, or ``None``: a duplicate of an indexed record, a forgery, or
        a record from beyond every window."""
        stats = self.session.stats
        candidates = self.candidates(conn)
        if self._opened and trial.tag is not None:
            hit = self._opened.get(bytes(trial.tag))
            if hit is not None:
                stream, seq = hit
                stats["tag_trials"] += 1
                if stream.ctx_recv.replayed(trial, seq):
                    return None
        # Fast pass: each candidate's single most likely sequence.
        for position, stream in enumerate(candidates):
            seq = stream.primary_trial_seq()
            stats["tag_trials"] += 1
            if stream.ctx_recv.verify_at(trial, seq):
                if position > 0:
                    stats["demux_fallbacks"] += 1
                return stream, seq
        # Slow pass: bounded sequence windows (steering / replay).
        window = self.session.trial_window
        for stream in candidates:
            for seq in stream.trial_seqs(window)[1:]:
                stats["tag_trials"] += 1
                if stream.ctx_recv.verify_at(trial, seq):
                    stats["demux_fallbacks"] += 1
                    return stream, seq
        return None

    def opened(self, stream, seq, trial):
        """Index a STREAM_DATA record ``stream`` just opened at ``seq``;
        a stream keeps its last ``trial_window``."""
        tag = bytes(trial.tag)
        tags = self._tags.get(stream.stream_id)
        if tags is None:
            tags = self._tags[stream.stream_id] = deque()
        tags.append(tag)
        self._opened[tag] = (stream, seq)
        if len(tags) > self.session.trial_window:
            self._opened.pop(tags.popleft(), None)
