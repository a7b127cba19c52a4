"""Open-loop load harness: scenario packs + the offered-load runner.

Closed-loop mdtest (``runner.py``) measures *capacity under lockstep*;
this harness measures *behavior under offered load* — the axis the
capacity analyzer (:mod:`repro.obs.capacity`) sweeps.  A run builds a
system, pre-creates the scenario's namespace in an unmeasured setup wave,
aligns the clock to a telemetry-window boundary, then lets an
:class:`~repro.sim.openloop.OpenLoopSource` inject jobs for ``horizon_us``
of virtual time.  Goodput counts only jobs *completed within the horizon*
(shed, abandoned, errored, and post-horizon stragglers are all reported
but excluded), so a saturated system shows a flat-then-falling goodput
curve instead of the closed-loop plateau.

Three scenario packs (ISSUE 9 / ROADMAP item 3):

* **dl-pipeline** — FalconFS-style training-data ingestion: huge fan-in
  ``readdir`` over Zipf-hot dataset directories plus small-file
  ``stat``/``read``.  Popularity comes from the shared
  :class:`~repro.harness.workloads.ZipfPicker` (PR 8) — both the hot
  directory and the hot file within it.
* **container-churn** — CFS-style container-platform metadata storms:
  interleaved ``create``/``unlink`` against per-session directories,
  namespace churning the whole run.
* **checkpoint-stampede** — HPC checkpointing: long quiet gaps, then
  every rank slams uniquely-named ``create``\\ s into a shared checkpoint
  directory (``burst`` arrival process).

Every pack precomputes its per-tenant job descriptor streams in arrival
(seq) order from the seeded RNG before the source starts, so the offered
sequence — times *and* ops — is a pure function of ``(pack, rate, seed)``,
independent of scheduling interleave (pinned by the determinism test).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

from repro.common.stats import iops
from repro.sim.costmodel import CostModel
from repro.sim.openloop import OpenLoopSource, TenantSpec

from .registry import make_system
from .runner import _drain_writebehind, build, resolve_sinks, run_wave
from .workloads import ZipfPicker

PACK_NAMES = ("dl-pipeline", "container-churn", "checkpoint-stampede")


def _pack_rng(seed: int, tenant: str, salt: str) -> random.Random:
    tag = zlib.crc32(f"{tenant}/{salt}".encode("utf-8"))
    return random.Random((seed * 2654435761 + tag) & 0xFFFFFFFF)


class _PackBase:
    """Shared pack plumbing: tenant specs + descriptor prefetch."""

    name = "?"
    process = "poisson"

    def __init__(self, n_tenants: int = 2, sessions: int = 8,
                 queue_bound: int = 64,
                 abandon_after_us: float | None = None) -> None:
        self.n_tenants = n_tenants
        self.sessions = sessions
        self.queue_bound = queue_bound
        self.abandon_after_us = abandon_after_us
        #: traced mode: job generators go through ``op_generator`` so span
        #: commands flow to an attached tracer (attribution re-runs); the
        #: source then skips its own op_complete bracket
        self.traced = False
        self._jobs: list[list[tuple]] = []

    def tenant_name(self, ti: int) -> str:
        return f"{self.name}-{ti}"

    def tenants(self, total_rate: float) -> list[TenantSpec]:
        """Tenant specs splitting ``total_rate`` (ops/s) evenly."""
        per = total_rate / self.n_tenants
        return [self._spec(ti, per) for ti in range(self.n_tenants)]

    def _spec(self, ti: int, rate: float) -> TenantSpec:
        return TenantSpec(
            name=self.tenant_name(ti), rate=rate, process=self.process,
            sessions=self.sessions, queue_bound=self.queue_bound,
            abandon_after_us=self.abandon_after_us)

    def root(self, ti: int) -> str:
        # top-level per-tenant directories, like the closed-loop harness's
        # per-client roots: subtree-partitioned baselines can spread them
        return f"/{self.name}-t{ti:02d}"

    def prepare(self, counts: list[int], seed: int) -> None:
        """Precompute each tenant's descriptor stream in seq order."""
        self._jobs = [self._descriptors(ti, counts[ti], seed)
                      for ti in range(self.n_tenants)]

    def descriptors(self, ti: int) -> list[tuple]:
        return self._jobs[ti]

    def _op(self, session, op: str, *args):
        if self.traced:
            return session.op_generator(op, *args)
        return session.op_raw(op, *args)

    # subclasses implement: _descriptors(ti, count, seed) -> list[tuple];
    # setup(session, ti) -> generator; job(ti, seq, session, slot) -> (name, gen)


class DLPipelinePack(_PackBase):
    """Fan-in readdir + Zipf-hot small-file stat/read over a static tree."""

    name = "dl-pipeline"

    def __init__(self, n_dirs: int = 24, n_files: int = 12,
                 zipf_s: float = 1.1, read_bytes: int = 4096,
                 **kw) -> None:
        super().__init__(**kw)
        self.n_dirs = n_dirs
        self.n_files = n_files
        self.zipf_s = zipf_s
        self.read_bytes = read_bytes

    def setup(self, session, ti: int):
        root = self.root(ti)
        yield from session.op_raw("mkdir", root)
        for j in range(self.n_dirs):
            yield from session.op_raw("mkdir", f"{root}/d{j:03d}")
            for k in range(self.n_files):
                yield from session.op_raw("create", f"{root}/d{j:03d}/f{k:03d}")
        yield from _drain_writebehind(session)

    def _descriptors(self, ti: int, count: int, seed: int) -> list[tuple]:
        rng = _pack_rng(seed, self.tenant_name(ti), "mix")
        dirs = ZipfPicker(self.n_dirs, self.zipf_s,
                          seed=(seed * 31 + ti) & 0x7FFFFFFF)
        files = ZipfPicker(self.n_files, self.zipf_s,
                           seed=(seed * 37 + ti + 1) & 0x7FFFFFFF)
        out = []
        for _ in range(count):
            r = rng.random()
            j = dirs.pick()
            if r < 0.30:
                out.append(("readdir", j))
            elif r < 0.80:
                out.append(("stat_file", j, files.pick()))
            else:
                out.append(("read", j, files.pick()))
        return out

    def job(self, ti: int, seq: int, session, slot: int):
        d = self._jobs[ti][seq]
        root = self.root(ti)
        if d[0] == "readdir":
            return "readdir", self._op(session, "readdir", f"{root}/d{d[1]:03d}")
        path = f"{root}/d{d[1]:03d}/f{d[2]:03d}"
        if d[0] == "stat_file":
            return "stat_file", self._op(session, "stat_file", path)
        return "read", self._op(session, "read", path, 0, self.read_bytes)


class ContainerChurnPack(_PackBase):
    """Create/delete storms against per-session container directories.

    Each (tenant, slot) session owns one directory and a FIFO of its live
    files, so every generated op is valid under the per-slot sequential
    execution the source guarantees.  Descriptors fix the *intent*
    (create vs unlink) per seq; an unlink arriving at an empty slot
    degrades to a create, mirroring a platform that recreates a container
    it no longer has.
    """

    name = "container-churn"
    create_frac = 0.65

    def __init__(self, **kw) -> None:
        super().__init__(**kw)
        self._live: dict[tuple[int, int], list[str]] = {}
        self._fresh: dict[tuple[int, int], int] = {}

    def setup(self, session, ti: int):
        root = self.root(ti)
        yield from session.op_raw("mkdir", root)
        for slot in range(self.sessions):
            yield from session.op_raw("mkdir", f"{root}/s{slot:02d}")
            self._live[(ti, slot)] = []
            self._fresh[(ti, slot)] = 0
        yield from _drain_writebehind(session)

    def _descriptors(self, ti: int, count: int, seed: int) -> list[tuple]:
        rng = _pack_rng(seed, self.tenant_name(ti), "churn")
        return [("create",) if rng.random() < self.create_frac else ("unlink",)
                for _ in range(count)]

    def job(self, ti: int, seq: int, session, slot: int):
        d = self._jobs[ti][seq]
        key = (ti, slot)
        live = self._live[key]
        dirp = f"{self.root(ti)}/s{slot:02d}"
        if d[0] == "unlink" and live:
            name = live.pop(0)
            return "unlink", self._op(session, "unlink", f"{dirp}/{name}")
        n = self._fresh[key]
        self._fresh[key] = n + 1
        name = f"c{n:06d}"
        live.append(name)
        return "create", self._op(session, "create", f"{dirp}/{name}")


class CheckpointStampedePack(_PackBase):
    """Burst-train create stampede into one checkpoint dir per tenant."""

    name = "checkpoint-stampede"
    process = "burst"

    def setup(self, session, ti: int):
        root = self.root(ti)
        yield from session.op_raw("mkdir", root)
        yield from session.op_raw("mkdir", f"{root}/ckpt")
        yield from _drain_writebehind(session)

    def _descriptors(self, ti: int, count: int, seed: int) -> list[tuple]:
        rng = _pack_rng(seed, self.tenant_name(ti), "ckpt")
        return [("create",) if rng.random() < 0.90 else ("stat_dir",)
                for _ in range(count)]

    def job(self, ti: int, seq: int, session, slot: int):
        d = self._jobs[ti][seq]
        ckpt = f"{self.root(ti)}/ckpt"
        if d[0] == "stat_dir":
            return "stat_dir", self._op(session, "stat_dir", ckpt)
        return "create", self._op(session, "create", f"{ckpt}/c{seq:08d}")


PACKS = {
    "dl-pipeline": DLPipelinePack,
    "container-churn": ContainerChurnPack,
    "checkpoint-stampede": CheckpointStampedePack,
}


def get_pack(name: str, **kw) -> _PackBase:
    try:
        cls = PACKS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario pack {name!r}; expected one of {PACK_NAMES}"
        ) from None
    return cls(**kw)


@dataclass
class OpenLoopResult:
    """One open-loop cell: (system, pack, offered rate) under a horizon."""

    system: str
    pack: str
    offered_rate: float            # configured ops/s across all tenants
    horizon_us: float
    num_tenants: int
    offered: int
    shed: int
    abandoned: int
    completed: int
    completed_in_horizon: int
    errors: int
    offered_iops: float            # realized arrivals / horizon
    goodput_iops: float            # in-horizon completions / horizon
    latency_us: dict[str, dict]    # per client.<op>: p50/p99/p999/mean/count
    wait_mean_us: float
    wait_max_us: float
    queue_peak: int
    backlog_at_horizon: int
    depth_slope: float             # mean server queue depth, 2nd half - 1st half
    conservation_ok: bool
    per_tenant: dict[str, dict]
    drain_us: float                # virtual time past the horizon to drain

    def aggregate_quantiles(self) -> dict:
        """Completion-weighted p50/p99/p999 across job op types."""
        tot = sum(d["count"] for d in self.latency_us.values())
        if not tot:
            return {"p50": 0.0, "p99": 0.0, "p999": 0.0, "count": 0}
        out = {"count": tot}
        for q in ("p50", "p99", "p999"):
            out[q] = sum(d[q] * d["count"] for d in self.latency_us.values()) / tot
        return out


def _depth_slope(telemetry, t0: float, t_end: float) -> float:
    """Mean total queue depth in the second half of the measured range
    minus the first half — positive when queues are still building at the
    horizon, one of the knee detector's saturation signals."""
    heat = telemetry.heat_timelines()
    if not heat["servers"]:
        return 0.0
    width = heat["window_us"]
    i0 = int(t0 / width)
    i1 = int(t_end / width)
    if i1 - i0 < 2:
        return 0.0
    totals = None
    for series in heat["servers"].values():
        depth = series["queue_depth"][i0:i1]
        if totals is None:
            totals = list(depth)
        else:
            for i, v in enumerate(depth):
                totals[i] += v
    mid = len(totals) // 2
    first = sum(totals[:mid]) / mid
    second = sum(totals[mid:]) / (len(totals) - mid)
    return second - first


def run_openloop(
    system_name: str,
    num_servers: int,
    pack: str | _PackBase = "dl-pipeline",
    rate: float = 20_000.0,
    horizon_us: float = 500_000.0,
    seed: int = 0,
    n_tenants: int = 2,
    sessions: int = 8,
    queue_bound: int = 64,
    abandon_after_us: float | None = None,
    cost: CostModel | None = None,
    tracer=None,
    metrics=None,
    telemetry=None,
    traced_jobs: bool = False,
) -> OpenLoopResult:
    """One open-loop cell: offer ``rate`` ops/s for ``horizon_us``.

    The measured range starts on a telemetry-window boundary (the clock
    is advanced there after setup regardless of whether a sink is
    attached, so observed and unobserved runs share virtual time) and the
    simulator then drains completely — jobs admitted before the horizon
    finish after it and are counted as completions but not goodput.
    """
    cost = cost or CostModel()
    sinks = tracer, metrics, telemetry = resolve_sinks(tracer, metrics, telemetry)
    if isinstance(pack, str):
        pack = get_pack(pack, n_tenants=n_tenants, sessions=sessions,
                        queue_bound=queue_bound,
                        abandon_after_us=abandon_after_us)
    pack.traced = traced_jobs
    system = build(sinks, make_system, system_name, num_servers, cost=cost,
                   engine_kind="event")
    engine = system.engine

    # --- setup wave (unmeasured) ---------------------------------------------
    setup_sessions = [system.client() for _ in range(pack.n_tenants)]
    run_wave(engine, (pack.setup(session, ti)
                      for ti, session in enumerate(setup_sessions)))

    # --- measured open-loop range ---------------------------------------------
    # align to a telemetry-window boundary so setup traffic never shares a
    # window with measured traffic (window-level quantiles stay clean)
    window = getattr(telemetry, "window_us", 1024.0) or 1024.0
    t0 = engine.sim.now
    if t0 % window:
        engine.sim.advance_to((int(t0 / window) + 1) * window)

    specs = pack.tenants(rate)
    sessions_by_tenant: dict[int, list] = {
        ti: [system.client() for _ in range(spec.sessions)]
        for ti, spec in enumerate(specs)
    }

    def session_factory(ti, slot):
        return sessions_by_tenant[ti][slot]

    source = OpenLoopSource(engine, specs, pack.job, session_factory,
                            seed=seed, horizon_us=horizon_us,
                            record_latency=not traced_jobs)
    pack.prepare([len(t.times) for t in source.tenants], seed)
    source.start()
    t_start = engine.sim.now
    engine.sim.run()
    if source.fatal:
        raise source.fatal[0]
    t_drained = engine.sim.now
    t_end = source.t_end

    # post-drain: flush write-behind sessions (unmeasured bookkeeping so
    # deferred creates are durable before close; past the horizon, so it
    # cannot affect goodput)
    run_wave(engine, (_drain_writebehind(session)
                      for sess_list in sessions_by_tenant.values()
                      for session in sess_list))

    tot = source.totals()
    latency: dict[str, dict] = {}
    if telemetry is not None:
        for op in telemetry.op_names():
            if not op.startswith("client."):
                continue
            sk = telemetry.merged_sketch(op, t_start, t_end)
            if sk.count:
                latency[op] = {
                    "count": sk.count, "mean": sk.mean,
                    "p50": sk.quantile(0.50), "p99": sk.quantile(0.99),
                    "p999": sk.quantile(0.999),
                }
    slope = _depth_slope(telemetry, t_start, t_end) if telemetry is not None else 0.0
    conservation = source.conservation_ok()

    if metrics is not None:
        metrics.counter(f"openloop.{system_name}.offered").inc(tot.offered)
        metrics.counter(f"openloop.{system_name}.goodput_ops").inc(
            tot.completed_in_horizon)
    system.close()
    return OpenLoopResult(
        system=system_name,
        pack=pack.name,
        offered_rate=rate,
        horizon_us=horizon_us,
        num_tenants=pack.n_tenants,
        offered=tot.offered,
        shed=tot.shed,
        abandoned=tot.abandoned,
        completed=tot.completed,
        completed_in_horizon=tot.completed_in_horizon,
        errors=tot.errors,
        offered_iops=iops(tot.offered, horizon_us),
        goodput_iops=iops(tot.completed_in_horizon, horizon_us),
        latency_us=latency,
        wait_mean_us=(tot.wait_sum_us / tot.started if tot.started else 0.0),
        wait_max_us=tot.wait_max_us,
        queue_peak=tot.queue_peak,
        backlog_at_horizon=tot.backlog_at_horizon,
        depth_slope=slope,
        conservation_ok=conservation,
        per_tenant={name: c.to_dict() for name, c in source.counters().items()},
        drain_us=max(0.0, t_drained - t_end),
    )
