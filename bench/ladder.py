"""The layer ladder (ROADMAP 1c): one ``create`` timed at every rung.

Each rung adds one layer on top of the previous one, so the difference
between neighbouring rungs is that layer's own host cost per create:

=====================================  ====================================
rung                                   adds
=====================================  ====================================
``kv.put_ns``                          a ``HashStore.put`` (null meter)
``kv.meter.put_ns``                    the cost-model ``Meter`` on the store
``core.fms.op_create_ns``              the FMS handler: probe, 2 puts, dirent
                                       append, packing
``core.dms.op_mkdir_ns``               *side rung*: the DMS handler on its
                                       B+-tree, for comparison with the FMS
``sim.engine.direct_rpc_ns``           DirectEngine: an ``Rpc`` to that handler
``sim.engine.event_rpc_ns``            EventEngine + simulator instead
``core.client.create_direct_ns``       ``LocoClient``'s create generator (path
                                       split, lease cache, placement) on the
                                       DirectEngine
``core.client.create_event_ns``        the same on the EventEngine
``core.asyncclient.create_event_ns``   *side rung*: LocoFS-A's deferred create
                                       (queue + batched flush) instead
``harness.create_ns``                  ``run_throughput``: 130 interleaved
                                       clients, per-op overhead charge, path
                                       formatting, queueing at 8 FMS
=====================================  ====================================

A rung is the median over several timings of 20 000 creates each, every
timing drift-corrected by the calibrations on either side of it
(``calibrate.py``).  Median, not minimum: the correction has noise of its
own, and a minimum would pick the timing whose correction erred most in
its favour.  Timings go in *rounds* — one timing of every rung per round —
so a slow minute on the host hurts every rung alike instead of whichever
rung it happened to fall on.  Every timing starts from a fresh store/
server/deployment, and every rung uses the harness's namespace shape —
directories of 150 files — so dirent appends cost the same at each rung.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

from repro.common.types import ROOT_CRED
from repro.core.dms import DirectoryMetadataServer
from repro.core.fms import FileMetadataServer
from repro.harness import make_system, run_throughput
from repro.kv import HashStore, Meter
from repro.sim.cluster import Cluster
from repro.sim.costmodel import CostModel, KVCostPolicy
from repro.sim.engine import DirectEngine, EventEngine
from repro.sim.rpc import Rpc

from .calibrate import Calibration
from .capture import Capture

DIR_SIZE = 150      # files per directory: create_storm's items per client
SERVERS = 8

RUNGS = (
    "kv.put_ns", "kv.meter.put_ns", "core.fms.op_create_ns",
    "core.dms.op_mkdir_ns", "sim.engine.direct_rpc_ns",
    "sim.engine.event_rpc_ns", "core.client.create_direct_ns",
    "core.client.create_event_ns", "core.asyncclient.create_event_ns",
    "harness.create_ns",
)


def _names(n: int) -> list[tuple[int, str]]:
    """(directory index, file name) for ``n`` creates, 150 per directory."""
    return [(i // DIR_SIZE, f"f{i % DIR_SIZE:06d}") for i in range(n)]


def _paths(n: int) -> tuple[list[str], list[str]]:
    dirs = [f"/d{d:04d}" for d in range(-(-n // DIR_SIZE))]
    return dirs, [f"{dirs[d]}/{name}" for d, name in _names(n)]


def _kv_put(n: int, metered: bool) -> float:
    meter = Meter(KVCostPolicy(CostModel())) if metered else None
    store = HashStore(meter=meter)
    keys = [d.to_bytes(8, "big") + name.encode() for d, name in _names(n)]
    value = b"v" * 40           # the size of a packed file-access part
    put = store.put
    t0 = perf_counter()
    for key in keys:
        put(key, value)
    return perf_counter() - t0


def _fms_node(engine_cls=None):
    cost = CostModel()
    cluster = Cluster(cost)
    cluster.add("fms0", FileMetadataServer(sid=1, cost=cost))
    return cluster, (engine_cls(cluster, cost) if engine_cls else None)


def _fms_op_create(n: int) -> float:
    cluster, _ = _fms_node()
    create = cluster["fms0"].handler.op_create
    names = _names(n)
    t0 = perf_counter()
    for d, name in names:
        create(d + 1, name, 0o644, ROOT_CRED, 0.0)
    return perf_counter() - t0


def _dms_op_mkdir(n: int) -> float:
    cost = CostModel()
    cluster = Cluster(cost)
    dms = cluster.add("dms", DirectoryMetadataServer()).handler
    dirs, paths = _paths(n)
    for d in dirs:
        dms.op_mkdir(d, 0o755, ROOT_CRED, 0.0)
    mkdir = dms.op_mkdir
    t0 = perf_counter()
    for path in paths:
        mkdir(path, 0o755, ROOT_CRED, 0.0)
    return perf_counter() - t0


def _rpc_stream(n: int):
    for d, name in _names(n):
        yield Rpc("fms0", "create", (d + 1, name, 0o644, ROOT_CRED, 0.0))


def _direct_rpc(n: int) -> float:
    _, engine = _fms_node(DirectEngine)
    gen = _rpc_stream(n)
    t0 = perf_counter()
    engine.run(gen)
    return perf_counter() - t0


def _event_rpc(n: int) -> float:
    _, engine = _fms_node(EventEngine)
    gen = _rpc_stream(n)
    t0 = perf_counter()
    engine.run(gen)
    return perf_counter() - t0


def _client(n: int, system_name: str, engine_kind: str) -> float:
    fs = make_system(system_name, SERVERS, engine_kind=engine_kind)
    client = fs.client()
    dirs, paths = _paths(n)
    for d in dirs:
        client.mkdir(d)
    flush = getattr(client, "flush", None)
    if flush is not None:
        flush()

    def process():
        op_raw = client.op_raw
        for path in paths:
            yield from op_raw("create", path, 0o644)

    gen = process()
    t0 = perf_counter()
    fs.engine.run(gen)      # either engine: one generator, driven to its end
    if flush is not None:
        flush()             # deferred creates count once they are durable
    elapsed = perf_counter() - t0
    if fs.total_files_fast() != n:
        raise RuntimeError(f"ladder created {fs.total_files_fast()} files, not {n}")
    return elapsed


def _harness(n: int) -> float:
    clients = 130                       # Table 3, 8 servers
    items = -(-n // clients)
    with Capture() as cap:
        run_throughput("locofs-c", SERVERS, op="touch", num_clients=clients,
                       items_per_client=items)
    (dep,) = cap.deployments
    return dep.measured_host_s * n / (clients * items)  # scaled to n creates


_TIMERS = {
    "kv.put_ns": lambda n: _kv_put(n, metered=False),
    "kv.meter.put_ns": lambda n: _kv_put(n, metered=True),
    "core.fms.op_create_ns": _fms_op_create,
    "core.dms.op_mkdir_ns": _dms_op_mkdir,
    "sim.engine.direct_rpc_ns": _direct_rpc,
    "sim.engine.event_rpc_ns": _event_rpc,
    "core.client.create_direct_ns": lambda n: _client(n, "locofs-c", "direct"),
    "core.client.create_event_ns": lambda n: _client(n, "locofs-c", "event"),
    "core.asyncclient.create_event_ns":
        lambda n: _client(n, "locofs-a", "event"),
    "harness.create_ns": _harness,
}


def run_ladder(calibration: Calibration, calls: int, min_rounds: int,
               max_rounds: int, seconds: float) -> tuple[dict[str, float], int]:
    """(ns per create at every rung, rounds run).

    Runs at least ``min_rounds`` rounds, then more while ``seconds`` have
    not passed, up to ``max_rounds``.
    """
    timings: dict[str, list[float]] = {rung: [] for rung in RUNGS}
    deadline = perf_counter() + seconds
    rounds = 0
    closing = calibration.sample()
    while rounds < min_rounds or (rounds < max_rounds
                                  and perf_counter() < deadline):
        for rung in RUNGS:
            gc.collect()
            opening = closing
            took = _TIMERS[rung](calls)
            closing = calibration.sample()
            timings[rung].append(took / calibration.drift(opening, closing))
        rounds += 1
    return ({rung: statistics.median(ts) / calls * 1e9
             for rung, ts in timings.items()}, rounds)
