"""The replay index: a duplicate of a record the receiver has opened is
rejected in one tag trial, with every event, counter and byte sent that
the two trial passes give it, and anything else still takes the passes.

Each receiver here is fed the records of one client session over a stub
transport (no network); its twin is fed the same records with the index
emptied, which is the receiver as it was before the index.
"""

import pytest

from repro.core.engine import bootstrap_ready_session
from repro.obs import CaptureSink
from repro.tls.record import RECORD_HEADER_SIZE, RecordReassembler

CIPHERS = ["null-tag", "aes128gcm"]
KEYS = {"null-tag": {},
        "aes128gcm": {"key": b"\x11" * 16, "peer_key": b"\x33" * 16}}
PAYLOAD = 300


def client_records(cipher_name, count, failover=True):
    """The wire records of a client that turns failover on (unless told
    not to) and sends ``count`` records' worth on one stream."""
    client, conn = bootstrap_ready_session(
        is_client=True, cipher_name=cipher_name, record_payload=PAYLOAD,
        **KEYS[cipher_name])
    if failover:
        client.enable_failover()
    client.create_stream(conn).send(bytes(range(256)) * (count * PAYLOAD
                                                         // 256 + 1))
    return RecordReassembler().feed(conn.tcp.take_sent())


class Receiver:
    """A server session over a stub transport, its ``tls`` events
    captured."""

    def __init__(self, cipher_name):
        self.session, self.conn = bootstrap_ready_session(
            is_client=False, cipher_name=cipher_name,
            record_payload=PAYLOAD, **KEYS[cipher_name])
        self.events = CaptureSink()
        self.session.bus.subscribe(self.events, categories=("tls",))

    def feed(self, *records):
        for record in records:
            self.session.bytes_received(self.conn, bytes(record))

    def index_sizes(self):
        return {stream_id: len(tags)
                for stream_id, tags in self.session.demux._tags.items()}

    def outcome(self, record):
        """What receiving ``record`` does: the events, the stats that
        move, the bytes sent back, and each stream's trials and hits."""
        session = self.session
        self.conn.tcp.take_sent()
        before = dict(session.stats)
        trials = {sid: (s.ctx_recv.tag_trials, s.ctx_recv.tag_hits)
                  for sid, s in session.streams.items()}
        seen = len(list(self.events))
        self.feed(record)
        return {
            "events": [(e.name, e.data) for e in list(self.events)[seen:]],
            "stats": {key: value - before[key]
                      for key, value in session.stats.items()
                      if value != before[key]},
            "sent": self.conn.tcp.take_sent(),
            "streams": {sid: (s.ctx_recv.tag_trials - trials[sid][0],
                              s.ctx_recv.tag_hits - trials[sid][1])
                        for sid, s in session.streams.items()},
        }


def twins(cipher_name, records):
    """A receiver fed ``records``, and its twin with the index emptied
    after them."""
    indexed, bare = Receiver(cipher_name), Receiver(cipher_name)
    for receiver in (indexed, bare):
        receiver.feed(*records)
    bare.session.demux._opened.clear()
    return indexed, bare


def data_records(records):
    """The STREAM_DATA records among ``records`` (the client's first
    two records are its ENABLE_FAILOVER and STREAM_ATTACH)."""
    return records[2:]


def without_trials(outcome):
    """``outcome`` less what the index may change: the trial counts."""
    stats = {k: v for k, v in outcome["stats"].items() if k != "tag_trials"}
    hits = {sid: hit for sid, (_, hit) in outcome["streams"].items()}
    return outcome["events"], stats, outcome["sent"], hits


@pytest.mark.parametrize("cipher_name", CIPHERS)
def test_duplicate_of_an_opened_record_costs_one_trial(cipher_name):
    records = client_records(cipher_name, 8)
    indexed, bare = twins(cipher_name, records)
    assert indexed.session.failover_enabled
    duplicate = data_records(records)[-3]
    got, was = indexed.outcome(duplicate), bare.outcome(duplicate)
    assert without_trials(got) == without_trials(was)
    assert got["stats"]["tag_trials"] == 1
    assert got["streams"][1] == (1, 0)      # one trial, on stream 1, no hit
    assert was["stats"]["tag_trials"] == 2 * indexed.session.trial_window
    # rejected as before: a drop, the event, and the re-ACK it seals
    assert got["stats"]["demux_drops"] == 1
    assert [name for name, _ in got["events"]] == ["record_rejected",
                                                   "record_sealed"]
    assert got["sent"]


@pytest.mark.parametrize("cipher_name", CIPHERS)
def test_same_tag_other_bytes_runs_the_whole_window(cipher_name):
    records = client_records(cipher_name, 8)
    indexed, bare = twins(cipher_name, records)
    forged = bytearray(data_records(records)[-3])
    forged[RECORD_HEADER_SIZE + 5] ^= 0x01       # ciphertext, not tag
    got, was = indexed.outcome(forged), bare.outcome(forged)
    assert without_trials(got) == without_trials(was)
    assert got["stats"]["tag_trials"] == was["stats"]["tag_trials"] + 1 \
        == 2 * indexed.session.trial_window + 1
    assert got["stats"]["demux_drops"] == 1


@pytest.mark.parametrize("cipher_name", CIPHERS)
def test_duplicate_older_than_the_window_takes_the_trial_path(cipher_name):
    window = Receiver(cipher_name).session.trial_window
    records = client_records(cipher_name, window + 6)
    indexed, bare = twins(cipher_name, records)
    oldest, newest = data_records(records)[0], data_records(records)[-1]
    got, was = indexed.outcome(oldest), bare.outcome(oldest)
    assert without_trials(got) == without_trials(was)
    assert got["stats"]["tag_trials"] == was["stats"]["tag_trials"] \
        == 2 * window
    assert indexed.outcome(newest)["stats"]["tag_trials"] == 1


@pytest.mark.parametrize("cipher_name", CIPHERS)
def test_nothing_is_indexed_with_failover_off(cipher_name):
    records = client_records(cipher_name, 8, failover=False)
    receiver = Receiver(cipher_name)
    receiver.feed(*records)
    session = receiver.session
    assert not session.failover_enabled
    assert session.streams[1].recv_decrypted.total == len(records) - 1
    assert not session.demux._opened and not session.demux._tags
    got = receiver.outcome(records[-1])
    assert got["stats"]["tag_trials"] == 2 * session.trial_window


@pytest.mark.parametrize("cipher_name", CIPHERS)
def test_index_holds_at_most_the_window_per_stream(cipher_name):
    receiver = Receiver(cipher_name)
    window = receiver.session.trial_window
    records = client_records(cipher_name, 2 * window + 5)
    sizes = []
    for record in records:
        receiver.feed(record)
        sizes.append(receiver.index_sizes().get(1, 0))
        assert len(receiver.session.demux._opened) == sum(
            receiver.index_sizes().values())
    assert max(sizes) == window == sizes[-1]
    assert receiver.session.streams[1].recv_decrypted.total \
        == len(data_records(records)) > 2 * window
