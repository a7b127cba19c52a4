"""Availability-under-failure runner (Fig. 16, beyond the paper).

Drives a create-heavy closed loop on the event engine while a
:class:`~repro.sim.faults.FaultSchedule` crashes and restarts one
metadata server mid-run, and measures what the paper's availability
story only asserts: how much goodput survives the outage, how wide the
unavailability window is, and — the correctness half — that *no create
acknowledged to the application is lost* once the server has replayed
its WAL (write-behind retries make the batched path exactly-once).

The schedule is authored relative to the measured wave: an unfaulted
baseline run measures the wave's virtual length ``E``, then the faulted
run crashes the victim at ``crash_at_frac * E`` and restarts it
``down_frac * E`` later (shifted to absolute time once setup is done).
After the faulted run drains, every acked path is re-checked with a
``stat`` — the differential check against the unfaulted run.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, field

from repro.common.errors import FSError, NoEntry
from repro.sim.costmodel import CostModel
from repro.sim.faults import FaultSchedule
from repro.sim.rpc import LocalCharge, Sleep

from .registry import make_system
from .runner import NO_SINKS, _setup_gen, build, resolve_sinks, run_wave
from .workloads import Workload

#: drain attempts before a write-behind client gives up re-flushing
_DRAIN_ATTEMPTS = 64


@dataclass
class AvailabilityResult:
    system: str
    crash_server: str
    num_servers: int
    num_clients: int
    acked_ops: int
    failed_ops: int
    elapsed_us: float
    goodput_iops: float
    baseline_iops: float
    unavailability_us: float
    lost_acked: int
    retries: int
    gaveups: int
    crashes: int
    #: (window_end_us relative to wave start, IOPS within the window)
    timeline: list = field(default_factory=list)


def _create_gen(client, engine, wl: Workload, cid: int, cost: CostModel,
                rec: dict):
    """Measured wave for one client: creates that survive server faults.

    A failed create (retries exhausted while the server is down) is
    counted and skipped — the closed loop keeps going, which is what
    gives the IOPS timeline its outage notch instead of a stall."""
    overhead = LocalCharge(cost.client_overhead_us)
    retry_wait = Sleep(cost.timeout_us * 4)
    for n in range(wl.items_per_client):
        yield overhead
        path = wl.file_path(cid, n)
        try:
            yield from client.op_generator("create", path)
        except FSError:
            rec["failed"] += 1
            continue
        rec["acked"].append((engine.sim.now, path))
    # durability drain: a write-behind queue re-queues on ServerDown, so
    # keep flushing (with a pause) until the recovered server accepts it
    gflush = getattr(client, "_g_flush", None)
    if gflush is None:
        return
    for _ in range(_DRAIN_ATTEMPTS):
        try:
            yield from gflush()
            return
        except FSError:
            yield retry_wait
    rec["undrained"] += getattr(client, "pending_ops", 0)


def _verify_gen(client, paths: list, rec: dict, wait: Sleep):
    """Post-run differential check: every acked path must still resolve.

    The wave can finish while the victim is still replaying its WAL, so
    a ServerDown here just means "not recovered yet" — sleep and retry
    until the schedule's restart completes."""
    for path in paths:
        for _ in range(_DRAIN_ATTEMPTS):
            try:
                yield from client.op_generator("stat_file", path)
                break
            except NoEntry:
                rec["lost"] += 1
                break
            except FSError:
                yield wait
        else:
            rec["unverified"] += 1


def _wave(system, cost: CostModel, wl: Workload, num_clients: int,
          schedule: FaultSchedule | None, crash_server: str):
    """Setup wave, (optionally faulted) measured wave, verify pass."""
    engine = system.engine
    clients = [system.client() for _ in range(num_clients)]
    run_wave(engine, (_setup_gen(c, wl, cid) for cid, c in enumerate(clients)))
    t0 = engine.sim.now
    if schedule is not None:
        # schedule times are relative to the measured wave; pin them now
        engine.attach_faults(schedule.shifted(t0))
    rec = {"acked": [], "failed": 0, "undrained": 0, "lost": 0,
           "unverified": 0, "retries": 0, "gaveups": 0}
    run_wave(engine, (_create_gen(c, engine, wl, cid, cost, rec)
                      for cid, c in enumerate(clients)))
    elapsed = engine.sim.now - t0
    # retry accounting stops at the wave boundary: the verify pass below
    # may itself retry against a still-recovering server
    if engine.faults is not None:
        rec["retries"] = engine.faults.retries
        rec["gaveups"] = engine.faults.gaveups
    # differential check: every acked create must still resolve
    wait = Sleep(cost.timeout_us * 4)
    paths = [p for _, p in rec["acked"]]
    per = max(1, (len(paths) + num_clients - 1) // num_clients)
    chunks = [paths[i * per:(i + 1) * per] for i in range(num_clients)]
    run_wave(engine, (_verify_gen(c, chunk, rec, wait)
                      for c, chunk in zip(clients, chunks) if chunk))
    crashes = system.cluster[crash_server].crashes if crash_server in system.cluster else 0
    system.close()
    return t0, elapsed, rec, crashes


def _timeline(times: list[float], t0: float, elapsed: float,
              buckets: int) -> tuple[list, float]:
    """Bucketed IOPS plus the widest completion gap (the outage notch)."""
    width = elapsed / buckets if buckets and elapsed > 0 else 0.0
    counts = [0] * buckets
    for t in times:
        if width > 0:
            counts[min(buckets - 1, int((t - t0) / width))] += 1
    series = [((i + 1) * width, c / width * 1e6 if width > 0 else 0.0)
              for i, c in enumerate(counts)]
    gap = 0.0
    edges = sorted(times) + [t0 + elapsed]
    prev = t0
    for t in edges:
        gap = max(gap, t - prev)
        prev = t
    return series, gap


def run_availability(
    system_name: str,
    num_servers: int = 4,
    crash_server: str = "fms0",
    num_clients: int = 8,
    items_per_client: int = 40,
    depth: int = 1,
    crash_at_frac: float = 0.3,
    down_frac: float = 0.2,
    torn_tail_bytes: int = 0,
    seed: int = 0,
    cost: CostModel | None = None,
    tracer=None,
    metrics=None,
    telemetry=None,
    data_dir: str | None = None,
    timeline_buckets: int = 40,
) -> AvailabilityResult:
    """One availability cell: crash/recover ``crash_server`` mid-run.

    Runs the same closed-loop create wave twice — unfaulted (baseline
    IOPS and wave length ``E``), then with ``crash_server`` crashed at
    ``crash_at_frac * E`` and restarted ``down_frac * E`` later — and
    reports goodput, the widest completion gap (unavailability window),
    retry/gaveup counts, and the number of acked-but-lost creates (which
    a WAL-backed LocoFS must keep at zero).
    """
    cost = cost or CostModel()
    wl = Workload(items_per_client=items_per_client, depth=depth)
    sinks = resolve_sinks(tracer, metrics, telemetry)
    own_dir = data_dir is None
    if own_dir:
        data_dir = tempfile.mkdtemp(prefix="repro-avail-")
    try:
        # ``data_dir`` makes every LocoFS metadata server write-ahead-log
        # its KV store: without it a crash honestly loses the namespace
        # and the lost-acked check reports the damage
        base_sys = build(NO_SINKS, make_system, system_name, num_servers,
                         cost=cost, engine_kind="event",
                         data_dir=os.path.join(data_dir, "baseline"))
        _, base_elapsed, base_rec, _ = _wave(
            base_sys, cost, wl, num_clients, None, crash_server)
        baseline_iops = (len(base_rec["acked"]) / base_elapsed * 1e6
                         if base_elapsed > 0 else 0.0)

        schedule = FaultSchedule(seed=seed).crash_restart(
            crash_server, crash_at_frac * base_elapsed,
            down_frac * base_elapsed, torn_tail_bytes=torn_tail_bytes)
        faulted_sys = build(sinks, make_system, system_name, num_servers,
                            cost=cost, engine_kind="event",
                            data_dir=os.path.join(data_dir, "faulted"))
        if crash_server not in faulted_sys.cluster:
            raise ValueError(
                f"{system_name!r} has no server {crash_server!r}; "
                f"servers: {faulted_sys.cluster.names()}")
        t0, elapsed, rec, crashes = _wave(
            faulted_sys, cost, wl, num_clients, schedule, crash_server)
    finally:
        if own_dir:
            shutil.rmtree(data_dir, ignore_errors=True)

    times = [t for t, _ in rec["acked"]]
    series, gap = _timeline(times, t0, elapsed, timeline_buckets)
    return AvailabilityResult(
        system=system_name,
        crash_server=crash_server,
        num_servers=num_servers,
        num_clients=num_clients,
        acked_ops=len(rec["acked"]),
        failed_ops=rec["failed"],
        elapsed_us=elapsed,
        goodput_iops=(len(rec["acked"]) / elapsed * 1e6 if elapsed > 0 else 0.0),
        baseline_iops=baseline_iops,
        unavailability_us=gap,
        lost_acked=rec["lost"] + rec["undrained"] + rec["unverified"],
        retries=rec["retries"],
        gaveups=rec["gaveups"],
        crashes=crashes,
        timeline=series,
    )
