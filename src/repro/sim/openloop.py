"""Open-loop arrival engine: offered load independent of completions.

Every harness before this one is closed-loop — each client waits for the
previous reply before issuing the next op, so offered load can never
exceed service capacity and the system is never observably *overloaded*.
The :class:`OpenLoopSource` inverts that: per-tenant arrival processes
inject jobs at configured rates regardless of how fast the system drains
them.  Overload then shows up exactly where capacity analysis needs it —
bounded admission queues shed arrivals, sojourn latency (arrival to
completion, queueing included) inflates, and backlog survives the horizon.

Determinism: arrival times are precomputed from the seeded per-tenant RNG
before the run starts (:func:`arrival_times` is a pure function of
``(spec, horizon, seed)``), so the offered sequence is bit-identical run
to run and independent of service-time interleaving.  The
driver schedules each arrival's successor *before* dispatching the
arrival itself — completions cannot perturb the arrival clock.

Accounting (per tenant, conserved at drain)::

    offered = shed + abandoned + completed + errors + in_flight + queued

* **offered** — arrivals generated by the process;
* **shed** — refused at admission (queue at ``queue_bound``);
* **abandoned** — admitted but waited longer than ``abandon_after_us``
  before a session slot freed (lazy reneging: detected at dispatch);
* **completed/errors** — jobs that ran to the end (``FSError`` counts as
  an error, not a completion);
* **in_flight/queued** — transient; both zero once the schedule drains.

Telemetry marks ``client.offered`` / ``client.shed`` /
``client.abandoned`` (plus per-tenant ``offered.<tenant>``) make the same
accounting visible to the SLO engine and the Perfetto export.
"""

from __future__ import annotations

import math
import random
import zlib
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from ..common.errors import FSError

PROCESSES = ("poisson", "burst", "diurnal")

#: Mark names shared with the SLO engine and exports.
MARK_OFFERED = "client.offered"
MARK_SHED = "client.shed"
MARK_ABANDONED = "client.abandoned"


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's arrival process and admission policy.

    ``rate`` is the *mean* offered rate in ops per second of virtual
    time, for every process kind:

    * ``poisson`` — memoryless inter-arrivals at ``rate``;
    * ``burst`` — Poisson train starts, each train releasing
      ``burst_size`` arrivals spaced ``burst_spacing_us`` apart (the
      checkpoint-stampede shape: long quiet gaps, dense slams);
    * ``diurnal`` — inhomogeneous Poisson with sinusoidal intensity
      ``rate * (1 + amplitude * sin(2*pi*t/period))``, via thinning.

    ``sessions`` bounds concurrency: each session slot runs one job at a
    time, so admitted jobs queue when all slots are busy.  The admission
    queue holds at most ``queue_bound`` waiting jobs; arrivals beyond
    that are shed.  ``abandon_after_us`` (optional) is the client-side
    patience: a queued job that waits longer is abandoned, not run.
    """

    name: str
    rate: float  # mean offered ops/sec (virtual time)
    process: str = "poisson"
    sessions: int = 8
    queue_bound: int = 256
    abandon_after_us: float | None = None
    burst_size: int = 16
    burst_spacing_us: float = 50.0
    diurnal_amplitude: float = 0.5
    diurnal_period_us: float = 250_000.0

    def __post_init__(self) -> None:
        if self.process not in PROCESSES:
            raise ValueError(
                f"unknown arrival process {self.process!r}; "
                f"expected one of {PROCESSES}")
        if self.rate <= 0.0:
            raise ValueError(f"tenant {self.name!r}: rate must be > 0")
        if self.sessions < 1:
            raise ValueError(f"tenant {self.name!r}: sessions must be >= 1")
        if self.queue_bound < 0:
            raise ValueError(f"tenant {self.name!r}: queue_bound must be >= 0")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError(
                f"tenant {self.name!r}: diurnal_amplitude must be in [0, 1)")


def _tenant_rng(spec: TenantSpec, seed: int) -> random.Random:
    """Per-tenant stream: seed folded with the tenant name, mirroring the
    per-client Knuth-hash streams in the closed-loop mixed harness."""
    tag = zlib.crc32(spec.name.encode("utf-8"))
    return random.Random((seed * 2654435761 + tag) & 0xFFFFFFFF)


def arrival_times(spec: TenantSpec, horizon_us: float, seed: int) -> list[float]:
    """Offsets (virtual us, sorted, in ``[0, horizon_us)``) of every
    arrival the tenant offers.  Pure function of its arguments — this is
    what the determinism test pins across runs."""
    if horizon_us <= 0.0:
        return []
    rng = _tenant_rng(spec, seed)
    per_us = spec.rate / 1e6
    times: list[float] = []
    if spec.process == "poisson":
        t = rng.expovariate(per_us)
        while t < horizon_us:
            times.append(t)
            t += rng.expovariate(per_us)
    elif spec.process == "burst":
        # Poisson train starts at rate/burst_size trains/us keep the mean
        # offered rate at `rate`; arrivals inside a train are evenly
        # spaced.  Trains may overlap, hence the final sort.
        train_rate = per_us / spec.burst_size
        t = rng.expovariate(train_rate)
        while t < horizon_us:
            for k in range(spec.burst_size):
                a = t + k * spec.burst_spacing_us
                if a < horizon_us:
                    times.append(a)
            t += rng.expovariate(train_rate)
        times.sort()
    else:  # diurnal, by thinning against the peak intensity
        peak = per_us * (1.0 + spec.diurnal_amplitude)
        omega = 2.0 * math.pi / spec.diurnal_period_us
        t = rng.expovariate(peak)
        while t < horizon_us:
            lam = per_us * (1.0 + spec.diurnal_amplitude * math.sin(omega * t))
            if rng.random() * peak <= lam:
                times.append(t)
            t += rng.expovariate(peak)
    return times


@dataclass
class TenantCounters:
    """Shed/abandon/completion accounting for one tenant (see module doc)."""

    offered: int = 0
    shed: int = 0
    admitted: int = 0
    started: int = 0
    completed: int = 0
    errors: int = 0
    abandoned: int = 0
    in_flight: int = 0
    completed_in_horizon: int = 0
    wait_sum_us: float = 0.0
    wait_max_us: float = 0.0
    queue_peak: int = 0
    backlog_at_horizon: int = 0

    def to_dict(self) -> dict:
        return {
            "offered": self.offered, "shed": self.shed,
            "admitted": self.admitted, "started": self.started,
            "completed": self.completed, "errors": self.errors,
            "abandoned": self.abandoned, "in_flight": self.in_flight,
            "completed_in_horizon": self.completed_in_horizon,
            "wait_sum_us": self.wait_sum_us, "wait_max_us": self.wait_max_us,
            "queue_peak": self.queue_peak,
            "backlog_at_horizon": self.backlog_at_horizon,
        }


@dataclass
class _Tenant:
    """Driver-internal per-tenant state."""

    spec: TenantSpec
    times: list[float]
    sessions: list = field(default_factory=list)      # per-slot client objects
    states: list = field(default_factory=list)        # per-slot engine states
    idle_slots: list[int] = field(default_factory=list)
    queue: list[tuple[float, int]] = field(default_factory=list)  # (t_arr, seq)
    q_head: int = 0                                    # popped prefix length
    counters: TenantCounters = field(default_factory=TenantCounters)

    def queued(self) -> int:
        return len(self.queue) - self.q_head


class OpenLoopSource:
    """Injects per-tenant jobs at precomputed arrival times.

    ``job_factory(tenant_index, seq, session, slot)`` returns
    ``(op_name, generator)`` for arrival number ``seq`` of the tenant —
    the generator is a bare client op (``op_raw``) or composition
    thereof; the source brackets it with sojourn-latency telemetry
    itself (``client.<op_name>`` measured from *arrival*, not dispatch,
    so queueing delay is inside the reported latency — the open-loop
    convention).

    ``session_factory(tenant_index, slot)`` builds one client/session
    object per (tenant, slot); each slot runs its jobs sequentially.
    """

    def __init__(self, engine, tenants: Iterable[TenantSpec],
                 job_factory: Callable, session_factory: Callable,
                 seed: int = 0, horizon_us: float = 1_000_000.0,
                 record_latency: bool = True) -> None:
        specs = list(tenants)
        if not specs:
            raise ValueError("OpenLoopSource needs at least one tenant")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        self.engine = engine
        self.job_factory = job_factory
        self.session_factory = session_factory
        self.seed = seed
        self.horizon_us = float(horizon_us)
        # False when job generators carry their own observability bracket
        # (traced attribution re-runs) — avoids double op_complete feeds
        self.record_latency = record_latency
        self.tenants = [
            _Tenant(spec=s, times=arrival_times(s, self.horizon_us, seed))
            for s in specs
        ]
        self.t0: float | None = None
        self.t_end: float | None = None
        self.fatal: list[BaseException] = []

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> None:
        """Anchor the horizon at the current virtual time and schedule the
        first arrival of every tenant.  Run the simulator to completion
        afterwards; the schedule drains once the last admitted job ends."""
        if self.t0 is not None:
            raise RuntimeError("OpenLoopSource.start() called twice")
        sim = self.engine.sim
        self.t0 = sim.now
        self.t_end = self.t0 + self.horizon_us
        for ti, ten in enumerate(self.tenants):
            ten.sessions = [self.session_factory(ti, slot)
                            for slot in range(ten.spec.sessions)]
            # one engine-side client state per slot, reused across jobs
            # (keeps server affinity like a long-lived client connection)
            ten.states = [self.engine.new_client()
                          for _ in range(ten.spec.sessions)]
            ten.idle_slots = list(range(ten.spec.sessions - 1, -1, -1))
            if ten.times:
                sim.at(self.t0 + ten.times[0], self._arrive, ti, 0)
        sim.at(self.t_end, self._note_horizon)

    def _note_horizon(self) -> None:
        for ten in self.tenants:
            ten.counters.backlog_at_horizon = ten.queued() + ten.counters.in_flight

    # -- arrivals ----------------------------------------------------------------
    def _arrive(self, ti: int, i: int) -> None:
        ten = self.tenants[ti]
        sim = self.engine.sim
        # chain the successor FIRST: the arrival clock never depends on
        # what this arrival does (that is what makes the loop open)
        if i + 1 < len(ten.times):
            sim.at(self.t0 + ten.times[i + 1], self._arrive, ti, i + 1)
        c = ten.counters
        c.offered += 1
        self.engine.instant_mark(MARK_OFFERED)
        self.engine.instant_mark(f"offered.{ten.spec.name}")
        if ten.queued() >= ten.spec.queue_bound:
            c.shed += 1
            self.engine.instant_mark(MARK_SHED)
            return
        c.admitted += 1
        ten.queue.append((sim.now, i))
        if ten.queued() > c.queue_peak:
            c.queue_peak = ten.queued()
        if ten.idle_slots:
            self._dispatch(ti, ten.idle_slots.pop())

    # -- dispatch / completion ---------------------------------------------------
    def _dispatch(self, ti: int, slot: int) -> None:
        ten = self.tenants[ti]
        c = ten.counters
        patience = ten.spec.abandon_after_us
        now = self.engine.sim.now
        while ten.q_head < len(ten.queue):
            t_arr, seq = ten.queue[ten.q_head]
            ten.q_head += 1
            if ten.q_head == len(ten.queue):   # drained: reset storage
                ten.queue.clear()
                ten.q_head = 0
            if patience is not None and now - t_arr > patience:
                c.abandoned += 1
                self.engine.instant_mark(MARK_ABANDONED)
                continue
            wait = now - t_arr
            c.wait_sum_us += wait
            if wait > c.wait_max_us:
                c.wait_max_us = wait
            c.started += 1
            c.in_flight += 1
            name, gen = self.job_factory(ti, seq, ten.sessions[slot], slot)
            self.engine.spawn(self._bracket(ti, name, gen, t_arr),
                              on_done=self._make_done(ti, slot),
                              client=ten.states[slot])
            return
        ten.idle_slots.append(slot)

    def _bracket(self, ti: int, name: str, gen, t_arr: float):
        """Run one job; record its *sojourn* (arrival -> completion) as
        the op latency.  ``FSError`` is an error outcome, not a crash."""
        ten = self.tenants[ti]
        failed = None
        try:
            yield from gen
        except FSError as e:
            failed = e
        c = ten.counters
        end = self.engine.sim.now
        if failed is None:
            c.completed += 1
            if end <= self.t_end:
                c.completed_in_horizon += 1
        else:
            c.errors += 1
        telemetry = self.engine.telemetry
        if telemetry is not None and self.record_latency:
            telemetry.op_complete(f"client.{name}", t_arr, end,
                                  error=type(failed).__name__ if failed else None)

    def _make_done(self, ti: int, slot: int):
        def on_done(value, exc):
            ten = self.tenants[ti]
            ten.counters.in_flight -= 1
            if exc is not None:
                self.fatal.append(exc)
                return
            self._dispatch(ti, slot)
        return on_done

    # -- accounting --------------------------------------------------------------
    def counters(self) -> dict[str, TenantCounters]:
        return {t.spec.name: t.counters for t in self.tenants}

    def totals(self) -> TenantCounters:
        tot = TenantCounters()
        for ten in self.tenants:
            c = ten.counters
            tot.offered += c.offered
            tot.shed += c.shed
            tot.admitted += c.admitted
            tot.started += c.started
            tot.completed += c.completed
            tot.errors += c.errors
            tot.abandoned += c.abandoned
            tot.in_flight += c.in_flight
            tot.completed_in_horizon += c.completed_in_horizon
            tot.wait_sum_us += c.wait_sum_us
            tot.wait_max_us = max(tot.wait_max_us, c.wait_max_us)
            tot.queue_peak = max(tot.queue_peak, c.queue_peak)
            tot.backlog_at_horizon += c.backlog_at_horizon
        return tot

    def conservation_ok(self) -> bool:
        """offered == shed + abandoned + completed + errors + in_flight
        + queued, per tenant.  At drain in_flight and queued are zero."""
        for ten in self.tenants:
            c = ten.counters
            if c.offered != (c.shed + c.abandoned + c.completed + c.errors
                             + c.in_flight + ten.queued()):
                return False
        return True
