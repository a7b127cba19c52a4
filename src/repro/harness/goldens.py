"""Determinism fingerprints for the virtual-time plane.

The wall-clock performance work (hot-path dispatch, memoized resolution,
ready-queue scheduling) must never change *virtual-time* results: the
simulator's outputs are the reproduction's science, and an optimization
that shifts ``engine.now`` by one microsecond is a correctness bug, not a
speedup.  This module computes an exact fingerprint — final clock values,
per-op latency statistics, and closed-loop elapsed times — for a fixed
workload on every evaluated system, so a golden file captured *before* an
optimization can be asserted bit-identical *after* it.

Floats survive a JSON round trip exactly (``repr`` shortest-round-trip),
so the comparison is ``==`` on the loaded document, not approximate.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.harness.mdtest import LATENCY_OPS, run_latency
from repro.harness.runner import run_throughput
from repro.harness.workloads import Workload
from repro.sim.costmodel import CostModel

#: the seven systems pinned by the determinism regression test
GOLDEN_SYSTEMS = (
    "locofs-c",
    "locofs-nc",
    "lustre-d1",
    "lustre-d2",
    "cephfs",
    "gluster",
    "indexfs",
)

#: fixed workload shape — changing these invalidates the golden file
N_ITEMS = 12
NUM_SERVERS = 2
EVENT_ITEMS = 8
EVENT_CLIENT_SCALE = 0.2


def _direct_clock(name: str) -> float:
    """Final DirectEngine clock after a fixed mkdir/create/stat/unlink mix."""
    from repro.harness.registry import make_system

    system = make_system(name, NUM_SERVERS, cost=CostModel(), engine_kind="direct")
    client = system.client()
    wl = Workload(items_per_client=N_ITEMS, depth=2)
    for path in wl.dir_chain(0):
        client.mkdir(path)
    for n in range(N_ITEMS):
        client.mkdir(wl.dir_path(0, n))
        client.create(wl.file_path(0, n))
    for n in range(N_ITEMS):
        client.stat_file(wl.file_path(0, n))
        client.stat_dir(wl.dir_path(0, n))
    client.readdir(wl.work_dir(0))
    for n in range(N_ITEMS):
        client.unlink(wl.file_path(0, n))
        client.rmdir(wl.dir_path(0, n))
    now = system.engine.now
    close = getattr(system, "close", None)
    if close:
        close()
    return now


def fingerprint_system(name: str) -> dict:
    """Exact virtual-time fingerprint of one system on the fixed workload."""
    rec = run_latency(name, NUM_SERVERS, n_items=N_ITEMS)
    stats = {}
    for op in LATENCY_OPS:
        s = rec.summary(op)
        stats[op] = [s.count, s.mean, s.p50, s.p95, s.p99, s.minimum, s.maximum]
    tp = run_throughput(
        name,
        NUM_SERVERS,
        op="touch",
        items_per_client=EVENT_ITEMS,
        client_scale=EVENT_CLIENT_SCALE,
    )
    return {
        "direct_now_us": _direct_clock(name),
        "latency_stats": stats,
        "event_elapsed_us": tp.elapsed_us,
        "event_total_ops": tp.total_ops,
        "event_num_clients": tp.num_clients,
    }


def determinism_fingerprint(systems=GOLDEN_SYSTEMS) -> dict:
    return {
        "schema": 1,
        "workload": {
            "n_items": N_ITEMS,
            "num_servers": NUM_SERVERS,
            "event_items": EVENT_ITEMS,
            "event_client_scale": EVENT_CLIENT_SCALE,
        },
        "systems": {name: fingerprint_system(name) for name in systems},
    }


def capture(path: str | Path, systems=GOLDEN_SYSTEMS) -> dict:
    """Write the fingerprint golden file and return the document."""
    doc = determinism_fingerprint(systems)
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return doc
