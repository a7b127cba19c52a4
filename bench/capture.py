"""Measured-wave isolation: watch a harness call from outside.

The harness functions (``run_throughput``, ``run_mixed_throughput``,
``run_latency``) build their own deployment and return only a summary.
The benchmark needs more — the deployment itself (for fsck, namespace
counts and server counters), the host time of the *measured* wave alone,
and counter values at the wave's edges — and may not edit ``src/`` to get
it.  :class:`Capture` therefore swaps, for the duration of one call, the
names the harness modules resolve at call time:

* ``make_system`` (in ``repro.harness.runner`` and ``.mdtest``) — records
  the deployment and taps its engine;
* ``LatencyRecorder`` (in ``repro.harness.mdtest``) — a subclass that also
  notes which phase each timed ``DirectEngine.run`` belonged to.

Event-engine harnesses call ``engine.sim.run()`` exactly twice: the set-up
wave, then the measured wave.  The tap times the two separately and takes
counter snapshots around the second.  The direct-engine harness runs one
``engine.run`` per op; set-up is everything before the run that produced
the first recorded sample.

Every tap costs two ``perf_counter`` reads and one Python frame — per
*wave* on the event engine, per *op* (~0.3 µs against ~150 µs) on the
direct engine — and sits outside the timed interval where it can.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from time import perf_counter
from typing import NamedTuple

import repro.harness.mdtest as _mdtest
import repro.harness.runner as _runner
from repro.common.stats import LatencyRecorder
from repro.obs import TelemetrySink


class NodeCounts(NamedTuple):
    """One server's public counters (``ServerNode`` and its ``Meter``)."""

    requests: int
    busy_us: float
    kv_virt_us: float
    kv_ops: dict[str, int]
    kv_bytes: dict[str, int]

    def since(self, before: "NodeCounts") -> "NodeCounts":
        return NodeCounts(
            self.requests - before.requests,
            self.busy_us - before.busy_us,
            self.kv_virt_us - before.kv_virt_us,
            {k: v - before.kv_ops.get(k, 0) for k, v in self.kv_ops.items()},
            {k: v - before.kv_bytes.get(k, 0) for k, v in self.kv_bytes.items()},
        )


@dataclass
class Snapshot:
    """Counter values of one deployment at one instant (all exact)."""

    virt_us: float
    events: int
    nodes: dict[str, NodeCounts]
    dcache_hits: int
    dcache_misses: int
    absorbed: int
    #: sub-ops the servers applied out of batched requests (handler counters)
    batch_records: int
    lookup: dict[str, int]
    gc_collections: int


def _snapshot(dep: "Deployment") -> Snapshot:
    system = dep.system
    engine = system.engine
    sim = getattr(engine, "sim", None)
    nodes = {}
    batch_records = 0
    for name in system.cluster.names():
        node = system.cluster[name]
        meter = node.meter
        nodes[name] = NodeCounts(node.requests_served, node.busy_us,
                                 meter.total_us, dict(meter.op_counts),
                                 dict(meter.byte_counts))
        counters = getattr(node.handler, "counters", None)
        if counters is not None:
            batch_records += counters.get("batch.records")
    hits = misses = absorbed = 0
    for client in dep.clients:
        dcache = getattr(client, "dcache", None)
        if dcache is not None:
            hits += dcache.hits
            misses += dcache.misses
        absorbed += (getattr(client, "annihilations", 0)
                     + getattr(client, "coalesced", 0))
    cache = getattr(system, "lookup_cache", None)
    return Snapshot(
        virt_us=engine.now,
        events=sim.events_processed if sim is not None else 0,
        nodes=nodes,
        dcache_hits=hits,
        dcache_misses=misses,
        absorbed=absorbed,
        batch_records=batch_records,
        lookup=cache.counters.snapshot() if cache is not None else {},
        gc_collections=sum(g["collections"] for g in gc.get_stats()),
    )


@dataclass
class Deployment:
    """One system the harness built, and what the taps saw it do."""

    system: object
    name: str
    num_servers: int
    kind: str                      # "event" | "direct"
    clients: list = field(default_factory=list)
    before: Snapshot | None = None     # at the start of the measured wave
    after: Snapshot | None = None      # at its end
    measured_t0: float | None = None   # host clock, measured wave
    measured_t1: float | None = None
    waves: int = 0                     # sim.run calls seen (event engine)
    hook_on: bool = False              # measured_hook(True) sent, not yet False
    # direct engine only: per-phase host seconds, and every sample in order
    phase_host_s: dict[str, float] = field(default_factory=dict)
    phase_virt_us: dict[str, list] = field(default_factory=dict)
    last_run: tuple[float, float] = (0.0, 0.0)

    @property
    def measured_host_s(self) -> float:
        return self.measured_t1 - self.measured_t0

    def node_deltas(self) -> dict[str, NodeCounts]:
        """Per-server counters of the measured wave alone."""
        return {name: after.since(self.before.nodes[name])
                for name, after in self.after.nodes.items()}

    @property
    def direct_ops(self) -> int:
        return sum(len(v) for v in self.phase_virt_us.values())

    def latencies(self) -> list[float]:
        return [v for vals in self.phase_virt_us.values() for v in vals]


class Capture:
    """Context manager: capture every deployment built inside the block.

    ``tracer`` is attached to each deployment's engine at build time (the
    mixed-throughput harness has no ``tracer=`` argument of its own).
    ``measured_hook(active)`` is called with ``True`` right before the
    measured work of a deployment starts and ``False`` right after it ends
    — profilers and GC watchers switch on and off there, so they see the
    measured wave and nothing else.
    """

    def __init__(self, tracer=None, measured_hook=None):
        self.tracer = tracer
        self.hook = measured_hook
        self.deployments: list[Deployment] = []
        self._saved: list[tuple] = []

    # -- patching ---------------------------------------------------------
    def __enter__(self) -> "Capture":
        self._swap(_runner, "make_system", self._wrap_make(_runner.make_system))
        self._swap(_mdtest, "make_system", self._wrap_make(_mdtest.make_system))
        self._swap(_mdtest, "LatencyRecorder", self._recorder_class())
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()
        self._close_direct()

    def _close_direct(self) -> None:
        # a direct-engine harness never says "measured work ends here"; it
        # ends when the harness returns or moves on to its next deployment
        for dep in self.deployments:
            if dep.hook_on:
                self._end_measured(dep)

    def _swap(self, module, name: str, replacement) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, replacement)

    def _wrap_make(self, make_system):
        def capturing_make_system(name, num_servers=1, cost=None,
                                  engine_kind="direct"):
            self._close_direct()
            system = make_system(name, num_servers, cost=cost,
                                 engine_kind=engine_kind)
            dep = Deployment(system, name, num_servers, engine_kind)
            self.deployments.append(dep)
            if self.tracer is not None:
                system.engine.attach_observability(tracer=self.tracer)
            self._tap_clients(dep)
            if engine_kind == "event":
                self._tap_event(dep)
            else:
                self._tap_direct(dep)
            return system
        return capturing_make_system

    # -- taps ---------------------------------------------------------------
    @staticmethod
    def _tap_clients(dep: Deployment) -> None:
        make_client = dep.system.client

        def client(*args, **kwargs):
            c = make_client(*args, **kwargs)
            dep.clients.append(c)
            return c

        dep.system.client = client

    def _begin_measured(self, dep: Deployment) -> None:
        dep.before = _snapshot(dep)
        if not dep.hook_on:
            dep.hook_on = True
            if self.hook is not None:
                self.hook(True)

    def _end_measured(self, dep: Deployment) -> None:
        dep.hook_on = False
        if self.hook is not None:
            self.hook(False)
        dep.after = _snapshot(dep)

    def _tap_event(self, dep: Deployment) -> None:
        sim = dep.system.engine.sim
        drain = sim.run

        def run(*args, **kwargs):
            dep.waves += 1
            if dep.waves == 1:          # the unmeasured set-up wave
                return drain(*args, **kwargs)
            if dep.waves > 2:
                raise RuntimeError(
                    "harness ran a third wave; measured-wave isolation "
                    "assumes set-up then measured")
            self._begin_measured(dep)
            dep.measured_t0 = perf_counter()
            try:
                return drain(*args, **kwargs)
            finally:
                dep.measured_t1 = perf_counter()
                self._end_measured(dep)

        sim.run = run

    def _tap_direct(self, dep: Deployment) -> None:
        engine = dep.system.engine
        drive = engine.run

        def run(gen):
            if dep.measured_t0 is None:
                # still in set-up: this run may turn out to be the first
                # measured op, so the snapshot before it is the candidate
                # (the hook therefore also sees the one-mkdir-per-level
                # set-up of the working directory: 1 op in 5 001)
                self._begin_measured(dep)
            t0 = perf_counter()
            try:
                return drive(gen)
            finally:
                dep.last_run = (t0, perf_counter())

        engine.run = run

    def _recorder_class(self):
        capture = self

        class PhaseRecorder(LatencyRecorder):
            """LatencyRecorder that files each sample's host time by phase."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                # run_latency builds the recorder right after its system
                self._dep = capture.deployments[-1]

            def record(self, op: str, latency_us: float) -> None:
                super().record(op, latency_us)
                dep = self._dep
                t0, t1 = dep.last_run
                if dep.measured_t0 is None:
                    dep.measured_t0 = t0
                dep.measured_t1 = t1
                try:
                    dep.phase_host_s[op] += t1 - t0
                    dep.phase_virt_us[op].append(latency_us)
                except KeyError:
                    dep.phase_host_s[op] = t1 - t0
                    dep.phase_virt_us[op] = [latency_us]

        return PhaseRecorder


class OpTap(TelemetrySink):
    """The repo's telemetry sink, also keeping what its sketches round away.

    Passed through the harness's own ``telemetry=`` argument.  Keeps every
    successful op's exact virtual ``(start, latency)`` and every batched
    request's arrival time, so quantiles are exact and the set-up wave can
    be cut off by virtual time afterwards.
    """

    def __init__(self) -> None:
        super().__init__()
        self.ops: list[tuple[float, float]] = []
        self.failed: list[float] = []
        self.batch_arrivals: list[float] = []

    def op_complete(self, name, start_us, end_us, error=None) -> None:
        if error is None:
            self.ops.append((start_us, end_us - start_us))
        else:
            self.failed.append(start_us)
        super().op_complete(name, start_us, end_us, error)

    def rpc_complete(self, server, arrive_us, start_us, service_us,
                     n_ops=1, batch=False, depth=None) -> None:
        if batch:
            self.batch_arrivals.append(arrive_us)
        super().rpc_complete(server, arrive_us, start_us, service_us,
                             n_ops, batch, depth)

    def latencies_since(self, virt_us: float) -> list[float]:
        return [lat for start, lat in self.ops if start >= virt_us]

    def batches_since(self, virt_us: float) -> int:
        """Batched requests that reached a server at or after ``virt_us``."""
        return sum(1 for arrive in self.batch_arrivals if arrive >= virt_us)
