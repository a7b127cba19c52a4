"""The five workloads, and how one *instance* of each is run and read.

Why these five (one line each is also in ``BENCHMARK.json``):

``create_storm``
    The paper's headline: a closed loop of Table-3 clients creating files
    on LocoFS-C.  Event kernel, client, FMS and hash-KV puts do the work;
    the DMS idles behind lease-cache hits and no path is ever revisited.
``read_mostly``
    Same deployment and client count driven the other way: Zipf-skewed
    stat/access/open/chmod over a pre-created pool.  A write-side gain
    that costs reads — or work pushed into the set-up wave — shows here.
``async_mixed``
    LocoFS-A under a blended create/update/remove/read mix: the only
    workload that reaches the dependency queue, the Batch path,
    ``op_apply_batch``, the lookup-cache node and a busy DMS.
``mdtest_direct``
    One client, LocoFS-NC, DirectEngine, every mdtest phase.  Bypasses the
    simulator and the lease cache; the only workload with rm/rmdir/readdir
    on large directories.  An event-kernel optimisation must not move it.
``paper_claims``
    Model plane only: the cells behind PAPER.md's headline ratios, with
    the baselines.  It is the accuracy reference (see ``claims.py``).

An *instance* is one harness call under :class:`~bench.capture.Capture`.
``--seed`` feeds the harness's ``seed=`` (per-client RNGs and Zipf
pickers); the program only ever sees the generated op stream.
``create_storm``, ``mdtest_direct`` and ``paper_claims`` have no random
choice in them, so the seed does not change their streams.
"""

from __future__ import annotations

import gc
import hashlib
from collections.abc import Callable
from dataclasses import dataclass, field
from time import perf_counter

from repro.core.fsck import check as fsck
from repro.harness import (
    FILE_META_OPS,
    LATENCY_OPS,
    MIX_READ_MOSTLY,
    run_latency,
    run_mixed_throughput,
    run_throughput,
)

from . import claims
from .calibrate import Calibration
from .capture import Capture, Deployment

#: async_mixed's blend: every op class the async client treats differently
#: (deferred creates, coalescing setattrs, annihilating unlinks, renames,
#: deferred mkdirs) plus enough reads to force dependent flushes
MIX_BLENDED = {
    "create": 0.20, "chmod": 0.15, "chown": 0.05, "unlink": 0.10,
    "rename": 0.05, "mkdir": 0.05, "stat": 0.25, "access": 0.10, "open": 0.05,
}

MDTEST_PHASES = LATENCY_OPS + FILE_META_OPS


# -- the harness calls ---------------------------------------------------------


def _create_storm(p, seed, **obs):
    return run_throughput("locofs-c", p["servers"], op="touch",
                          num_clients=p["clients"],
                          items_per_client=p["items"], **obs)


def _read_mostly(p, seed, **obs):
    return run_mixed_throughput("locofs-c", p["servers"], mix=MIX_READ_MOSTLY,
                                num_clients=p["clients"],
                                items_per_client=p["items"], pool=p["pool"],
                                zipf_s=1.0, seed=seed, **obs)


def _async_mixed(p, seed, **obs):
    return run_mixed_throughput("locofs-a", p["servers"], mix=MIX_BLENDED,
                                num_clients=p["clients"],
                                items_per_client=p["items"], pool=p["pool"],
                                zipf_s=1.0, seed=seed, **obs)


def _mdtest_direct(p, seed, **obs):
    return run_latency("locofs-nc", p["servers"], n_items=p["n_items"],
                       ops=MDTEST_PHASES, **obs)


def _paper_claims(p, seed, **obs):
    # claims take no sinks: they are the reference, measured bare
    return claims.run_cells(p)


# -- what the op stream must leave behind ------------------------------------------


def _ns_create_storm(p, result):
    return p["clients"] * p["items"], p["clients"] + 1


def _ns_read_mostly(p, result):
    return p["clients"] * p["pool"], p["clients"] + 1


def _ns_async_mixed(p, result):
    n = result.op_counts
    files = p["clients"] * p["pool"] + n.get("create", 0) - n.get("unlink", 0)
    return files, p["clients"] + 1 + n.get("mkdir", 0)


def _ns_mdtest_direct(p, result):
    return 0, 2       # every phase undone: root and the working directory


@dataclass(frozen=True)
class Workload:
    name: str
    #: (params, seed, telemetry=, metrics=) -> harness result
    call: Callable
    #: (params, harness result) -> (files, directories) expected afterwards
    namespace: Callable | None = None
    #: parameter that scales the op count (shrunk for the Tracer pass)
    size_key: str = "items"


WORKLOADS = {
    w.name: w for w in (
        Workload("create_storm", _create_storm, _ns_create_storm),
        Workload("read_mostly", _read_mostly, _ns_read_mostly),
        Workload("async_mixed", _async_mixed, _ns_async_mixed),
        Workload("mdtest_direct", _mdtest_direct, _ns_mdtest_direct, "n_items"),
        Workload("paper_claims", _paper_claims),
    )
}


# -- one instance ---------------------------------------------------------------


@dataclass
class Instance:
    """What one harness call did, on both planes."""

    workload: str
    ops: int                 # measured ops attempted
    failed: int              # of those, raised or counted as errors
    raw_host_s: float        # host seconds inside the measured wave(s)
    raw_setup_s: float       # host seconds of everything else in the call
    virt_us: float           # virtual time the measured wave took
    virt_iops: float
    primary: Deployment      # the deployment virt_* and work counts describe
    deployments: list[Deployment]
    result: object
    #: ops of the primary deployment alone (paper_claims has nine)
    primary_ops: int
    claims: dict = field(default_factory=dict)
    #: direct engine only: raw host seconds inside ``engine.run``, by phase
    raw_phase_host_s: dict = field(default_factory=dict)
    #: host slowdown against the reference while this ran (calibrate.py);
    #: ``calibration_s`` is the bracket's closing time, reusable as the
    #: next instance's opening one
    drift: float = 1.0
    calibration_s: float = 0.0

    def __post_init__(self) -> None:
        self.raw_phase_host_s = dict(self.primary.phase_host_s)

    def release(self) -> None:
        """Drop the deployment and keep the numbers (memory stays flat)."""
        self.primary = self.deployments = self.result = None

    # host time below is drift-corrected: what it would have been on the
    # reference container at full speed
    @property
    def host_s(self) -> float:
        return self.raw_host_s / self.drift

    @property
    def setup_s(self) -> float:
        return self.raw_setup_s / self.drift

    @property
    def host_ops_per_s(self) -> float:
        return self.ops / self.host_s

    def phase_host_s(self, op: str) -> float:
        return self.raw_phase_host_s[op] / self.drift


def run_instance(workload: Workload, p: dict, seed: int,
                 calibration: Calibration, *, telemetry=None, metrics=None,
                 tracer=None, measured_hook=None,
                 after: Instance | None = None) -> Instance:
    """Run one instance under capture, between two calibrations, and split
    it into set-up and measured.  ``after`` is the instance that ran right
    before this one, if any: its closing calibration opens this bracket."""
    gc.collect()              # every instance starts from the same heap state
    opening = (after.calibration_s if after is not None
               else calibration.sample())
    t0 = perf_counter()
    with Capture(tracer=tracer, measured_hook=measured_hook) as cap:
        result = workload.call(p, seed, telemetry=telemetry, metrics=metrics)
    wall = perf_counter() - t0
    inst = _read_instance(workload, result, cap.deployments, wall)
    inst.calibration_s = calibration.sample()
    inst.drift = calibration.drift(opening, inst.calibration_s)
    return inst


def _read_instance(workload: Workload, result, deps: list[Deployment],
                   wall: float) -> Instance:
    for dep in deps:
        if dep.kind == "event" and dep.waves != 2:
            raise RuntimeError(f"{dep.name}: saw {dep.waves} waves, expected 2")
    host_s = sum(d.measured_host_s for d in deps)

    if workload.name == "paper_claims":
        claim_values, results = result
        ops = sum(r.total_ops if hasattr(r, "total_ops") else d.direct_ops
                  for r, d in zip(results, deps))
        primary = next(d for d in deps if d.kind == "event"
                       and d.name == "locofs-c" and d.num_servers == 16)
        cell = results[deps.index(primary)]
        return Instance(workload.name, ops, 0, host_s, wall - host_s,
                        cell.elapsed_us, cell.iops, primary, deps, result,
                        cell.total_ops, claim_values)

    (dep,) = deps
    if dep.kind == "direct":
        ops = dep.direct_ops
        recorded = sum(result.count(op) for op in result.ops())
        if ops != recorded:
            raise RuntimeError(f"tap saw {ops} measured ops, harness {recorded}")
        virt_us = dep.after.virt_us - dep.before.virt_us
        return Instance(workload.name, ops, 0, host_s, wall - host_s, virt_us,
                        ops / (virt_us / 1e6), dep, deps, result, ops)
    virt_us = dep.after.virt_us - dep.before.virt_us
    if virt_us != result.elapsed_us:
        raise RuntimeError(f"tap saw {virt_us} virtual us in the measured "
                           f"wave, harness {result.elapsed_us}")
    return Instance(workload.name, result.total_ops,
                    getattr(result, "errors", 0), host_s, wall - host_s,
                    virt_us, result.iops, dep, deps, result, result.total_ops)


# -- reading an instance -----------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def work_counts(inst: Instance, batches: int) -> dict[str, float]:
    """The exact per-layer work counts of the measured wave.

    ``batches`` is the number of batched requests the servers received in
    it — the one count no server or client keeps; the telemetry tap does.
    """
    dep, ops = inst.primary, inst.primary_ops
    nodes = dep.node_deltas()
    before, after = dep.before, dep.after
    fms = [d for name, d in nodes.items() if name.startswith("fms")]
    fms_requests = [d.requests for d in fms]
    dms = nodes.get("dms")
    hits = after.dcache_hits - before.dcache_hits
    misses = after.dcache_misses - before.dcache_misses
    lk_hits = after.lookup.get("hits", 0) - before.lookup.get("hits", 0)
    lk_misses = after.lookup.get("misses", 0) - before.lookup.get("misses", 0)
    return {
        "sim.simulator.events_per_op": (after.events - before.events) / ops,
        "core.client.rpcs_per_op":
            sum(d.requests for d in nodes.values()) / ops,
        "core.client.dcache_hit_ratio": _ratio(hits, hits + misses),
        "core.asyncclient.absorbed_ratio":
            (after.absorbed - before.absorbed) / ops,
        "core.asyncclient.ops_per_batch":
            _ratio(after.batch_records - before.batch_records, batches),
        "core.lookupcache.hit_ratio": _ratio(lk_hits, lk_hits + lk_misses),
        "core.dms.requests_per_op": dms.requests / ops if dms else 0.0,
        "core.dms.util": _ratio(dms.busy_us, inst.virt_us) if dms else 0.0,
        "core.fms.requests_per_op": sum(fms_requests) / ops,
        "core.fms.util_max": _ratio(max((d.busy_us for d in fms), default=0.0),
                                    inst.virt_us),
        "core.fms.imbalance": _ratio(
            max(fms_requests, default=0) * len(fms_requests),
            sum(fms_requests)),
        "kv.ops_per_op":
            sum(sum(d.kv_ops.values()) for d in nodes.values()) / ops,
        "kv.bytes_per_op":
            sum(sum(d.kv_bytes.values()) for d in nodes.values()) / ops,
        "kv.virt_us_per_op": sum(d.kv_virt_us for d in nodes.values()) / ops,
        "gc.collections_per_kop":
            1000.0 * (after.gc_collections - before.gc_collections) / ops,
    }


def fingerprint(inst: Instance) -> str:
    """Hash of the virtual plane: clocks, per-server busy time, KV op counts.

    Floats go in as ``float.hex`` so one flipped bit changes the hash.  A
    change meant only to speed the simulator must leave it untouched.
    """
    h = hashlib.sha256()
    for dep in inst.deployments:
        h.update(f"{dep.name}/{dep.num_servers}/{dep.kind}|"
                 f"{(dep.after.virt_us - dep.before.virt_us).hex()}|"
                 f"{dep.after.events - dep.before.events}\n".encode())
        for name, d in sorted(dep.node_deltas().items()):
            h.update(f" {name}|{d.requests}|{d.busy_us.hex()}|"
                     f"{d.kv_virt_us.hex()}|{sorted(d.kv_ops.items())}\n"
                     .encode())
    h.update(f"{inst.ops}|{inst.failed}|{inst.virt_iops.hex()}\n".encode())
    for name, value in sorted(inst.claims.items()):
        h.update(f"{name}={float(value).hex()}\n".encode())
    return h.hexdigest()[:16]


def check_namespace(workload: Workload, p: dict, inst: Instance) -> list[tuple]:
    """[(check name, ok, detail)] on the drained deployment of a load run."""
    if workload.namespace is None:
        return []
    fs = inst.primary.system
    want_files, want_dirs = workload.namespace(p, inst.result)
    files, dirs = fs.total_files_fast(), fs.total_directories()
    report = fsck(fs)
    return [
        ("namespace.files", files == want_files,
         f"{files} files, op stream implies {want_files}"),
        ("namespace.directories", dirs == want_dirs,
         f"{dirs} directories, op stream implies {want_dirs}"),
        ("fsck.clean", report.clean and report.files == want_files,
         f"{len(report.errors)} errors, {report.files} files walked"
         + (f"; first: {report.errors[0]}" if report.errors else "")),
    ]
