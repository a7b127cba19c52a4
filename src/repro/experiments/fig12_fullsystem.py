"""Figure 12 — full-system read/write latency across I/O sizes.

1000 files (scaled) in one directory; each is created, written/read with a
fixed-size I/O, and closed; 16 metadata servers; no replication.  With
small I/Os the metadata path dominates (LocoFS wins by the paper's 2–5x);
past ~1 MB writes / ~256 KB reads the data path dominates and the systems
converge.
"""

from __future__ import annotations

from repro.harness import LABELS, make_system
from repro.sim.costmodel import CostModel
from repro.sim.rpc import LocalCharge

DEFAULT_SYSTEMS = ("locofs-c", "lustre-d1", "cephfs", "gluster")
DEFAULT_SIZES = (512, 4096, 32768, 262144, 1048576, 4194304)

from .common import ExperimentResult


def _session(client, cost, path, size, do_write):
    data = b"x" * size
    yield LocalCharge(cost.client_overhead_us)
    if do_write:
        yield from client.op_generator("create", path)
        yield from client.op_generator("write", path, 0, data)
    else:
        yield from client.op_generator("open", path, 4)
        yield from client.op_generator("read", path, 0, size)


def run(
    systems=DEFAULT_SYSTEMS,
    sizes=DEFAULT_SIZES,
    num_servers: int = 16,
    n_files: int = 30,
) -> dict[str, ExperimentResult]:
    cost = CostModel()
    out: dict[str, dict[str, dict]] = {"write": {}, "read": {}}
    for name in systems:
        wrow: dict = {}
        rrow: dict = {}
        for size in sizes:
            system = make_system(name, num_servers, cost=cost, engine_kind="direct")
            client = system.client()
            client.mkdir("/data")
            engine = system.engine
            t0 = engine.now
            for i in range(n_files):
                engine.run(_session(client, cost, f"/data/f{size}_{i}", size, True))
            wrow[size] = (engine.now - t0) / n_files
            t0 = engine.now
            for i in range(n_files):
                engine.run(_session(client, cost, f"/data/f{size}_{i}", size, False))
            rrow[size] = (engine.now - t0) / n_files
            system.close()
        out["write"][LABELS[name]] = wrow
        out["read"][LABELS[name]] = rrow
    results = {}
    for kind in ("write", "read"):
        results[kind] = ExperimentResult(
            experiment="Fig. 12",
            title=f"{kind} latency (create/open + {kind} + close) vs I/O size",
            col_header="system \\ I/O size (B)",
            columns=list(sizes),
            rows=out[kind],
            unit="µs per file",
            fmt="{:,.0f}",
        )
    return results
