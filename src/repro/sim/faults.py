"""Deterministic fault injection for the timing plane (``repro.sim.faults``).

Production metadata services treat failure as a first-class design axis;
this module gives the simulator the same vocabulary without giving up the
bit-for-bit determinism the golden tests pin.  Three pieces:

``FaultSchedule``
    Pure data: crash/restart events per server at virtual times, plus
    global per-RPC drop/delay probabilities drawn from a seeded RNG.  An
    *empty* schedule attached to an engine changes nothing — every check
    guards on "any faults configured?", no RNG is consulted, and virtual
    time is identical to an un-attached run.

``RetryPolicy``
    Client-side capped exponential backoff with deterministic jitter.
    The engines apply it transparently to every RPC and batch: a request
    that times out (down server or dropped packet) is re-issued after
    ``backoff_us(attempt)``, up to ``max_retries``, then surfaces as
    :class:`~repro.common.errors.ServerDown`.

``FaultState``
    The per-engine runtime.  Crash/restart events are processed *lazily*:
    every RPC issue/delivery calls :meth:`FaultState.advance` with the
    current virtual time, so no extra simulator events are needed and the
    same code serves both the direct and the event engine.  A crash calls
    the handler's ``crash()`` hook (volatile state is lost; only the WAL
    survives, optionally with a torn tail); a restart calls ``restart()``
    which replays the WAL and returns the replayed byte count — the
    server then stays unavailable for ``CostModel.recovery_us(bytes)``
    of virtual time, modeling replay-before-serve.  A handler with a
    ``resume(at_us)`` hook is then told the instant it serves again.

Failure semantics, briefly:

* **Down server** — detected when a request *arrives* (one half-RTT after
  send), so a request in flight when the server dies is lost with it.
  The client perceives a timeout ``CostModel.timeout_us`` after arrival.
* **Dropped RPC** — request loss on the wire: the server never executes
  it (no spurious ``Exists`` on a retried create).
* **Dropped batch** — *response* loss: the server executes the batch,
  the client times out and retries ``apply_batch`` under the same
  ``(client_id, seq)`` — the hard case that exercises the servers'
  per-client reply cache end-to-end.
* **Delay** — the request is late by a jittered ``delay_us``; no loss.
"""

from __future__ import annotations

import random
from collections import deque

__all__ = ["FaultSchedule", "RetryPolicy", "FaultState", "F_OK", "F_DROP", "F_DELAY"]

#: wire fates returned by :meth:`FaultState.wire_fate`
F_OK = 0
F_DROP = 1
F_DELAY = 2

_CRASH = 0
_RESTART = 1


class FaultSchedule:
    """Declarative fault plan: crash/restart events + wire-loss knobs.

    Event times are virtual microseconds on the engine's clock.  The
    builder methods chain::

        FaultSchedule(seed=7).crash("fms0", 300_000.0).restart("fms0", 500_000.0)
    """

    def __init__(self, seed: int = 0, drop_prob: float = 0.0,
                 delay_prob: float = 0.0, delay_us: float = 500.0):
        if not 0.0 <= drop_prob <= 1.0 or not 0.0 <= delay_prob <= 1.0:
            raise ValueError("probabilities must be within [0, 1]")
        if drop_prob + delay_prob > 1.0:
            raise ValueError("drop_prob + delay_prob must not exceed 1")
        self.seed = seed
        self.drop_prob = drop_prob
        self.delay_prob = delay_prob
        self.delay_us = delay_us
        #: (at_us, kind, server, torn_tail_bytes) in insertion order
        self.events: list[tuple[float, int, str, int]] = []

    # -- builders ---------------------------------------------------------------
    def crash(self, server: str, at_us: float,
              torn_tail_bytes: int = 0) -> "FaultSchedule":
        """Kill ``server`` at ``at_us``; optionally tear the last
        ``torn_tail_bytes`` off its WAL (crash mid-group-commit)."""
        self.events.append((at_us, _CRASH, server, torn_tail_bytes))
        return self

    def restart(self, server: str, at_us: float) -> "FaultSchedule":
        """Restart ``server`` at ``at_us``: WAL replay, then serve."""
        self.events.append((at_us, _RESTART, server, 0))
        return self

    def crash_restart(self, server: str, at_us: float, down_us: float,
                      torn_tail_bytes: int = 0) -> "FaultSchedule":
        """Crash at ``at_us`` and restart ``down_us`` later."""
        return self.crash(server, at_us, torn_tail_bytes).restart(
            server, at_us + down_us)

    def shifted(self, dt_us: float) -> "FaultSchedule":
        """A copy with every event time offset by ``dt_us`` — schedules
        are authored relative to a measurement window, then shifted to
        the absolute virtual time at which the window starts.

        **Wire fates do not shift.**  Drop/delay fates are drawn from one
        seeded RNG stream in *attempt order* (the k-th RPC attempt gets
        the k-th draw), not keyed by virtual time, so a shifted copy
        reproduces the exact same fate sequence as the original: the
        k-th attempt drops in both.  This is intentional — availability
        harnesses author a schedule relative to the wave, shift it to the
        wave's start time, and compare against an unshifted baseline; if
        fates were time-keyed, the shift itself would change which
        requests are lost and the comparison would measure the shift, not
        the faults.  Tests pin this contract
        (``test_faults.py::TestShiftedSemantics``).
        """
        out = FaultSchedule(self.seed, self.drop_prob, self.delay_prob,
                            self.delay_us)
        out.events = [(t + dt_us, kind, server, tear)
                      for t, kind, server, tear in self.events]
        return out

    def servers(self) -> set[str]:
        return {server for _, _, server, _ in self.events}


class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    ``backoff_us(attempt)`` for attempt 0, 1, 2, ... is
    ``min(base * 2^attempt, cap)`` stretched by up to ``jitter`` drawn
    from the fault layer's seeded RNG — deterministic for a given
    schedule seed, decorrelated between retrying clients.
    """

    __slots__ = ("max_retries", "base_us", "cap_us", "jitter")

    def __init__(self, max_retries: int = 4, base_us: float = 400.0,
                 cap_us: float = 25_000.0, jitter: float = 0.25):
        self.max_retries = max_retries
        self.base_us = base_us
        self.cap_us = cap_us
        self.jitter = jitter

    def backoff_us(self, attempt: int, rng: random.Random) -> float:
        delay = self.base_us * (1 << attempt)
        if delay > self.cap_us:
            delay = self.cap_us
        if self.jitter:
            delay *= 1.0 + self.jitter * rng.random()
        return delay


class FaultState:
    """Runtime fault bookkeeping for one engine.

    Holds the pending event queue, the down-set, the seeded RNG that
    decides wire fates and retry jitter, and the engine's retry/gaveup
    counts.  The engine calls
    :meth:`advance` (lazily processes due crash/restart events),
    :meth:`wire_fate` (per-attempt drop/delay draw) and :meth:`is_down`.
    """

    def __init__(self, schedule: FaultSchedule, engine):
        self.schedule = schedule
        self.engine = engine
        self.rng = random.Random(schedule.seed)
        # stable sort keeps same-instant events in authoring order
        self._queue = deque(sorted(schedule.events, key=lambda e: e[0]))
        #: server -> crash time, while crashed or still replaying
        self._down: dict[str, float] = {}
        #: server -> time at which it serves again (set by restart)
        self._available_at: dict[str, float] = {}
        self._drop = schedule.drop_prob
        self._delay = schedule.delay_prob
        #: skip every RNG draw when no wire faults are configured, so an
        #: event-only (or empty) schedule consumes no randomness
        self._wire = self._drop > 0.0 or self._delay > 0.0
        #: attempts re-issued after backoff, and given up (policy spent) —
        #: counted whether or not a sink is attached
        self.retries = 0
        self.gaveups = 0

    # -- wire fates ---------------------------------------------------------------
    def wire_fate(self) -> tuple[int, float]:
        """Fate of one request attempt: (F_OK|F_DROP|F_DELAY, extra_us)."""
        if not self._wire:
            return F_OK, 0.0
        r = self.rng.random()
        if r < self._drop:
            return F_DROP, 0.0
        if r < self._drop + self._delay:
            return F_DELAY, self.schedule.delay_us * (0.5 + self.rng.random())
        return F_OK, 0.0

    # -- crash/restart event processing -------------------------------------------
    def advance(self, now: float) -> None:
        """Process every crash/restart event with time <= ``now``."""
        q = self._queue
        while q and q[0][0] <= now:
            t, kind, server, tear = q.popleft()
            if kind == _CRASH:
                self._do_crash(server, t, tear)
            else:
                self._do_restart(server, t)

    def is_down(self, server: str, now: float) -> bool:
        since = self._down.get(server)
        if since is None:
            return False
        avail = self._available_at.get(server)
        if avail is not None and now >= avail:
            del self._down[server]
            del self._available_at[server]
            return False
        return True

    def _do_crash(self, server: str, t: float, tear: int) -> None:
        if server in self._down:
            return  # double crash while already down: no-op
        self._down[server] = t
        self._available_at.pop(server, None)
        node = self.engine.cluster[server]
        node.crashes += 1
        crash = getattr(node.handler, "crash", None)
        if crash is not None:
            # volatile state dies with the process; the WAL (torn or not)
            # is all that survives.  Handlers without the hook model
            # availability loss only (state persists) — documented.
            crash(torn_tail_bytes=tear)
        self.engine._fault_transition("server.crash", server, t,
                                      f"{server}.crashes", up=0)

    def _do_restart(self, server: str, t: float) -> None:
        if server not in self._down:
            return  # restart without a preceding crash: no-op
        node = self.engine.cluster[server]
        restart = getattr(node.handler, "restart", None)
        replayed = restart() if restart is not None else 0
        recovery = self.engine.cost.recovery_us(replayed)
        avail = t + recovery
        self._available_at[server] = avail
        # replay occupies the server: requests arriving mid-recovery are
        # refused (is_down), and the FIFO clock starts after replay
        if node.next_free < avail:
            node.next_free = avail
        node.busy_us += recovery
        node.recovered_us += recovery
        # a node that lost volatile coherence state (the lookup-cache
        # node's stale floors) learns when it serves again
        resume = getattr(node.handler, "resume", None)
        if resume is not None:
            resume(avail)
        self.engine._fault_transition(
            "server.recover", server, avail, f"{server}.recovers", up=1,
            replayed_bytes=replayed, replay_us=recovery)
