"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.simulator import Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.at(30, order.append, "c")
    sim.at(10, order.append, "a")
    sim.at(20, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 30


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []
    for tag in "abcde":
        sim.at(5, order.append, tag)
    sim.run()
    assert order == list("abcde")


def test_cannot_schedule_in_past():
    sim = Simulator()
    sim.at(10, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.at(5, lambda: None)


def test_nan_times_are_refused():
    """A NaN heap key compares false both ways, so it fired events out of
    (time, seq) order, and a NaN ``until`` drained the whole schedule.
    Every entry point refuses NaN, leaving the schedule and the clock
    untouched."""
    nan = float("nan")
    sim = Simulator()
    order = []
    with pytest.raises(ValueError, match="NaN"):
        sim.at(nan, order.append, "y")
    sim.at(5.0, order.append, "b")
    sim.at(1.0, order.append, "a")
    with pytest.raises(ValueError, match="NaN"):
        sim.run(until=nan)
    with pytest.raises(ValueError, match="NaN"):
        sim.advance_to(nan)
    assert (order, sim.now) == ([], 0.0)
    sim.run()
    assert order == ["a", "b"]


def test_run_until_stops_clock():
    sim = Simulator()
    fired = []
    sim.at(10, fired.append, 1)
    sim.at(100, fired.append, 2)
    sim.run(until=50)
    assert fired == [1]
    assert sim.now == 50
    sim.run()
    assert fired == [1, 2]


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 5:
            sim.at(sim.now + 1, chain, n + 1)

    sim.at(sim.now, chain, 0)
    sim.run()
    assert seen == [0, 1, 2, 3, 4, 5]
    assert sim.now == 5


def test_max_events_guard():
    sim = Simulator()

    def forever():
        sim.at(sim.now + 1, forever)

    sim.at(sim.now, forever)
    sim.run(max_events=100)
    assert sim.events_processed == 100


def test_determinism_across_runs():
    def build():
        sim = Simulator()
        out = []
        for i in range(50):
            sim.at(i % 7, out.append, i)
        sim.run()
        return out

    assert build() == build()


def test_heap_events_precede_ready_chain_at_same_instant():
    """Interleaved zero-delay spawns and timed events at one instant.

    Every heap entry at time t was pushed before the clock reached t, so
    it must fire before any zero-delay continuation created *at* t — even
    when the continuations form a self-feeding chain.
    """
    sim = Simulator()
    order = []
    sim.at(10, order.append, "timed-a")

    def chain(n):
        order.append(f"ready-{n}")
        if n < 3:
            sim.at(sim.now, chain, n + 1)

    sim.at(10, chain, 0)
    sim.at(10, order.append, "timed-b")
    sim.run()
    assert order == ["timed-a", "ready-0", "timed-b",
                     "ready-1", "ready-2", "ready-3"]


def test_resumed_run_does_not_starve_same_instant_heap_events():
    """Regression (ISSUE 7 satellite): a zero-delay spawn chain queued
    after a bounded run stopped mid-instant must not starve heap events
    still pending at the current virtual time.

    A bounded ``run`` can return with the clock standing at t while heap
    entries at t remain.  Ready entries appended afterwards carry later
    scheduling order, so the full-drain resume must fire the leftover
    heap entries first (the resumption-edge pre-drain) — a ready-first
    drain would run the whole chain ahead of them, and an unbounded
    chain would starve them forever.
    """
    sim = Simulator()
    order = []
    sim.at(10, order.append, "timed-a")
    sim.at(10, order.append, "timed-b")
    sim.run(max_events=1)  # stops mid-instant: now == 10, timed-b queued
    assert order == ["timed-a"]
    assert sim.now == 10

    def chain(n):
        order.append(f"ready-{n}")
        if n < 3:
            sim.at(sim.now, chain, n + 1)

    sim.at(sim.now, chain, 0)  # lands in the ready queue at t == 10
    sim.run()
    assert order == ["timed-a", "timed-b",
                     "ready-0", "ready-1", "ready-2", "ready-3"]


def test_bounded_run_interleaves_heap_before_ready_at_same_instant():
    sim = Simulator()
    order = []
    sim.at(10, order.append, "timed-a")
    sim.at(10, order.append, "timed-b")
    sim.run(max_events=1)
    sim.at(sim.now, order.append, "ready-0")
    # the bounded loop must also prefer same-instant heap entries
    sim.run(max_events=1)
    assert order == ["timed-a", "timed-b"]
    sim.run(max_events=1)
    assert order == ["timed-a", "timed-b", "ready-0"]

