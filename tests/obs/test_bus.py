"""The event bus: subscription, filtering, scoping and sinks."""

import pytest

from repro.net import Simulator
from repro.obs import CaptureSink, RingBufferSink
from repro.obs.events import ALL_CATEGORIES, Event

pytestmark = pytest.mark.obs


def test_emit_without_subscribers_is_a_noop():
    sim = Simulator()
    assert sim.bus.emit("tcp", "state_changed", {"conn": 1}) is None
    assert sim.bus.events_emitted == 0


def test_emit_delivers_event_with_sim_time():
    sim = Simulator()
    sink = CaptureSink()
    sim.bus.subscribe(sink)
    sim.schedule(1.25, sim.bus.emit, "tcp", "rto", {"conn": 3})
    sim.run()
    (event,) = sink.events
    assert (event.time, event.category, event.name) == (1.25, "tcp", "rto")
    assert event.data == {"conn": 3}
    assert sim.bus.events_emitted == 1


def test_callable_sinks_are_supported():
    sim = Simulator()
    seen = []
    sim.bus.subscribe(seen.append)
    sim.bus.emit("link", "drop", {"reason": "loss"})
    assert len(seen) == 1 and isinstance(seen[0], Event)


def test_category_filter():
    sim = Simulator()
    sink = CaptureSink()
    sim.bus.subscribe(sink, categories=("tls", "session"))
    sim.bus.emit("tcp", "rto", {})
    sim.bus.emit("tls", "record_sealed", {"seq": 0})
    sim.bus.emit("session", "stream_created", {"stream": 1})
    assert sink.names() == ["record_sealed", "stream_created"]


def test_where_filter_scopes_by_data_equality():
    sim = Simulator()
    sink = CaptureSink()
    sim.bus.subscribe(sink, where={"session": 1})
    sim.bus.emit("tls", "record_sealed", {"session": 1, "seq": 0})
    sim.bus.emit("tls", "record_sealed", {"session": 2, "seq": 0})
    sim.bus.emit("tls", "record_sealed", {"seq": 5})  # no session key
    assert len(sink.events) == 1
    assert sink.events[0].data["session"] == 1


def test_emit_returns_none_when_where_rejects_all():
    """An event nobody accepted counts as not emitted."""
    sim = Simulator()
    sim.bus.subscribe(CaptureSink(), where={"session": 9})
    assert sim.bus.emit("tls", "record_sealed", {"session": 1}) is None
    assert sim.bus.events_emitted == 0


def test_unsubscribe_by_subscription_and_by_sink():
    sim = Simulator()
    sink = CaptureSink()
    sub = sim.bus.subscribe(sink, categories=("tcp",))
    sim.bus.subscribe(sink, categories=("tls",))
    sim.bus.emit("tcp", "a", {})
    sim.bus.unsubscribe(sub)
    sim.bus.emit("tcp", "b", {})
    sim.bus.emit("tls", "c", {})
    assert sink.names() == ["a", "c"]
    sim.bus.unsubscribe(sink)          # removes the remaining sub
    sim.bus.emit("tls", "d", {})
    assert sink.names() == ["a", "c"]


def test_wants_reflects_live_subscriptions():
    sim = Simulator()
    assert not sim.bus.wants("tcp")
    sub = sim.bus.subscribe(CaptureSink(), categories=("tcp",))
    assert sim.bus.wants("tcp") and not sim.bus.wants("tls")
    sim.bus.unsubscribe(sub)
    assert not sim.bus.wants("tcp")
    sim.bus.subscribe(CaptureSink())   # unfiltered listens to everything
    for category in ALL_CATEGORIES:
        assert sim.bus.wants(category)


def test_wants_memo_invalidated_on_mutation():
    """wants() is memoised per category; any subscribe/unsubscribe must
    invalidate the memo (a stale True would re-arm dead emitters, a
    stale False would silence live sinks)."""
    sim = Simulator()
    assert not sim.bus.wants("tcp")
    sub = sim.bus.subscribe(CaptureSink(), categories=("tcp",))
    assert sim.bus.wants("tcp")            # memo rebuilt after subscribe
    assert sim.bus.wants("tcp")            # memo hit
    sim.bus.unsubscribe(sub)
    assert not sim.bus.wants("tcp")        # memo rebuilt after unsubscribe


def test_emit_on_unwatched_category_skips_dispatch():
    """With only category-filtered subscribers, an emit on another
    category must build no Event and count nothing."""
    sim = Simulator()
    sink = CaptureSink()
    sim.bus.subscribe(sink, categories=("session",))
    assert sim.bus.emit("tcp", "rto", {"conn": 1}) is None
    assert sim.bus.events_emitted == 0
    assert sink.events == []
    assert sim.bus.emit("session", "stream_created", {}) is not None


def test_subscribe_during_emit_takes_effect_next_emit():
    """The emission snapshot is immutable: a sink subscribed from
    inside a handler sees the *next* event, never the current one."""
    sim = Simulator()
    late = CaptureSink()

    def recruiter(event):
        if not late.events and event.name == "first":
            sim.bus.subscribe(late)

    sim.bus.subscribe(recruiter)
    sim.bus.emit("tcp", "first", {})
    assert late.events == []
    sim.bus.emit("tcp", "second", {})
    assert late.names() == ["second"]


def test_unsubscribe_during_emit_respects_active_flag():
    """A sink unsubscribed mid-emit (by an earlier handler) must not
    receive the in-flight event: the snapshot still lists it, the
    active flag gates delivery."""
    sim = Simulator()
    victim = CaptureSink()

    def assassin(event):
        sim.bus.unsubscribe(victim)

    sim.bus.subscribe(assassin)
    sim.bus.subscribe(victim)
    sim.bus.emit("tcp", "hit", {})
    assert victim.events == []


def test_capture_select():
    sim = Simulator()
    sink = CaptureSink()
    sim.bus.subscribe(sink)
    sim.bus.emit("tls", "record_sealed", {"stream": 1, "seq": 0})
    sim.bus.emit("tls", "record_sealed", {"stream": 2, "seq": 0})
    sim.bus.emit("tls", "record_opened", {"stream": 1, "seq": 0})
    assert len(sink.select(name="record_sealed")) == 2
    assert len(sink.select(name="record_sealed", stream=1)) == 1
    assert len(sink.select(category="tls")) == 3
    assert sink.select(category="session") == []


def test_ring_buffer_keeps_only_the_tail():
    sim = Simulator()
    ring = RingBufferSink(capacity=3)
    sim.bus.subscribe(ring)
    for i in range(10):
        sim.bus.emit("tcp", "tick", {"i": i})
    assert [e.data["i"] for e in ring.events] == [7, 8, 9]
    assert ring.seen == 10
    assert ring.dropped == 7


def test_ring_buffer_rejects_non_positive_capacity():
    with pytest.raises(ValueError):
        RingBufferSink(capacity=0)


def test_event_to_dict_uses_milliseconds():
    event = Event(1.5, "recovery", "failover", {"from": 0, "to": 1})
    assert event.to_dict() == {
        "time": 1500.0,
        "category": "recovery",
        "event": "failover",
        "data": {"from": 0, "to": 1},
    }


def test_bad_sink_raises_type_error():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.bus.subscribe(object())


def test_next_id_counts_from_one_per_kind_and_per_bus():
    sim, other = Simulator(), Simulator()
    assert [sim.bus.next_id("conn") for _ in range(3)] == [1, 2, 3]
    assert sim.bus.next_id("session") == 1
    assert other.bus.next_id("conn") == 1


def test_subscribed_tracks_whether_anyone_listens():
    sim = Simulator()
    assert sim.bus.subscribed is False
    sub = sim.bus.subscribe(CaptureSink(), categories=("tcp",))
    assert sim.bus.subscribed is True
    sim.bus.unsubscribe(sub)
    assert sim.bus.subscribed is False
