"""Deterministic discrete-event simulation kernel.

A minimal event scheduler: callbacks fire in (time, sequence) order, so
two events at the same instant run in scheduling order and every run is
exactly reproducible.  Time is in virtual microseconds.

Two structures back the schedule:

* an **event heap** for future events, keyed ``(time, seq)``;
* a **same-instant ready queue** (FIFO deque) for events scheduled *at the
  current time* — zero-delay continuations such as process spawns and
  empty ``Parallel`` resumes.  These are the most common schedule calls in
  closed-loop runs, and a deque append/popleft is O(1) against the heap's
  O(log n).

The split cannot reorder anything: a pending ready entry was scheduled at
the current instant, so its sequence number is larger than that of any
heap entry carrying the same timestamp (those were pushed before the clock
reached it).  ``run`` therefore drains heap events whose time equals
``now`` before ready entries, and never advances the clock while the ready
queue is non-empty — exactly the (time, seq) order a single heap produces.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Callable


class Simulator:
    """Event heap + same-instant ready queue with a virtual clock."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Callable, tuple]] = []
        self._ready: deque[tuple[Callable, tuple]] = deque()
        self._seq = 0
        self._events_processed = 0

    def at(self, time: float, fn: Callable, *args) -> None:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        if time <= self.now:
            if time < self.now:
                raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
            self._ready.append((fn, args))
        else:
            self._seq += 1
            heapq.heappush(self._heap, (time, self._seq, fn, args))

    def after(self, delay: float, fn: Callable, *args) -> None:
        """Schedule ``fn(*args)`` after ``delay`` microseconds."""
        if delay < 0.0:
            raise ValueError(f"negative delay: {delay}")
        # the time comparison (not the delay) decides the queue, so a delay
        # small enough to vanish in float addition still lands in the ready
        # queue in scheduling order
        time = self.now + delay
        if time <= self.now:
            self._ready.append((fn, args))
        else:
            self._seq += 1
            heapq.heappush(self._heap, (time, self._seq, fn, args))

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Process events until the schedule drains, ``until`` is reached, or
        ``max_events`` have fired (a runaway guard for tests)."""
        heap = self._heap
        ready = self._ready
        pop = heapq.heappop
        popleft = ready.popleft
        if until is None and max_events is None:
            # The common full-drain loop: *batched* event application.  Two
            # invariants make the unsynchronized inner drains safe (module
            # docstring): ``at``/``after`` route ``time <= now`` to the
            # ready queue, so a callback can never push a heap entry at the
            # current instant; and every heap entry at a given timestamp
            # was pushed before the clock reached it, so it precedes (in
            # seq order) any ready entry created at that instant.  Hence:
            # drain the whole same-instant run of heap events without
            # re-checking the ready queue, then drain the ready queue
            # without re-peeking the heap — exactly (time, seq) order,
            # with the per-event "which queue?" test gone.
            n = self._events_processed
            try:
                # resumption edge: a bounded run() can stop mid-instant,
                # leaving heap entries at time <= now; those precede any
                # pending ready entry (their seqs are smaller)
                while heap and heap[0][0] <= self.now:
                    n += 1
                    entry = pop(heap)
                    entry[2](*entry[3])
                while True:
                    while ready:
                        n += 1
                        fn, args = popleft()
                        fn(*args)
                    if not heap:
                        return
                    entry = pop(heap)
                    t = entry[0]
                    self.now = t
                    n += 1
                    entry[2](*entry[3])
                    while heap and heap[0][0] == t:
                        n += 1
                        entry = pop(heap)
                        entry[2](*entry[3])
            finally:
                self._events_processed = n
        n = 0
        while True:
            if ready and not (heap and heap[0][0] <= self.now):
                fn, args = popleft()
            elif heap:
                time = heap[0][0]
                if until is not None and time > until:
                    self.now = until
                    return
                _, _, fn, args = pop(heap)
                self.now = time
            else:
                return
            self._events_processed += 1
            fn(*args)
            n += 1
            if max_events is not None and n >= max_events:
                return

    def advance_to(self, time: float) -> None:
        """Drain events up to ``time`` and leave the clock exactly there.

        ``run(until=...)`` only moves the clock when a later event exists;
        with an empty schedule it returns with ``now`` unchanged.  Drivers
        that align measurement windows to a boundary (the open-loop
        harness aligns to a telemetry-window multiple so setup traffic
        never shares a window with measured traffic) need the clock moved
        regardless, which is what this does.  Scheduling at ``time`` after
        this call is legal: ``at`` treats ``time == now`` as a same-instant
        ready entry.
        """
        if time < self.now:
            raise ValueError(f"cannot advance into the past: {time} < {self.now}")
        self.run(until=time)
        if self.now < time:
            self.now = time

    @property
    def pending(self) -> int:
        return len(self._heap) + len(self._ready)

    @property
    def events_processed(self) -> int:
        return self._events_processed
