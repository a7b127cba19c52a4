"""Figure 14 — directory-rename overhead: B+-tree vs hash DB, HDD vs SSD.

The paper pre-creates 10 M directories in the DMS, then measures the time
to d-rename directories containing 1 K … 10 M sub-directories, comparing
the Kyoto/Tokyo Cabinet hash mode (full scan per rename) against the
B+-tree mode (contiguous prefix move, §3.4.3), on HDD and SSD.

Here the renames *really execute* on our own B+-tree and hash stores; the
reported time is the metered KV work under a device model where reads hit
the page cache (the paper's DMS fits its namespace in RAM) and writes pay
sequential log-write bandwidth plus seeks.  The primary series is this
modeled virtual time, which is deterministic run to run.  Wall-clock time
of the real Python data-structure work is informational only and collected
just when ``measure_wall=True`` (it varies with host load and would make
the default output non-reproducible).
"""

from __future__ import annotations

import time

from repro.common.types import ROOT_CRED
from repro.core.dms import DirectoryMetadataServer
from repro.kv.meter import Meter
from repro.sim.costmodel import HDD, SSD, CostModel, DeviceModel

from .common import ExperimentResult

DEFAULT_GROUP_SIZES = (1000, 2000, 5000, 10000)


class DeviceKVPolicy:
    """CPU cost + device cost: cached reads, persistent sequential writes."""

    def __init__(self, cost: CostModel, device: DeviceModel):
        self.cost = cost
        self.device = device

    def cost_us(self, op: str, nbytes: int) -> float:
        cpu = self.cost.kv_cost_us(op, nbytes)
        if op in ("put", "delete"):
            return cpu + self.device.write_us(nbytes or 64)
        if op == "seek":
            return cpu + self.device.seek_us
        return cpu  # gets/scans served from the page cache


def _build_dms(
    backend: str, device: DeviceModel, group_sizes, base_dirs: int
) -> DirectoryMetadataServer:
    dms = DirectoryMetadataServer(backend=backend)
    dms.attach_meter(Meter(DeviceKVPolicy(CostModel(), device)))
    # the paper pre-creates 10M directories before renaming; base_dirs is
    # the scaled stand-in — it is what the hash mode must scan through
    dms.op_mkdir("/base", 0o755, ROOT_CRED, 0.0)
    # each mkdir is one request: settle its ledger as an engine would
    for i in range(base_dirs):
        dms.op_mkdir(f"/base/b{i:08d}", 0o755, ROOT_CRED, 0.0)
        dms.meter.settle()
    for n in group_sizes:
        dms.op_mkdir(f"/grp{n}", 0o755, ROOT_CRED, 0.0)
        for i in range(n):
            dms.op_mkdir(f"/grp{n}/d{i:07d}", 0o755, ROOT_CRED, 0.0)
            dms.meter.settle()
    return dms


def run(
    group_sizes=DEFAULT_GROUP_SIZES,
    base_dirs: int = 25000,
    measure_wall: bool = False,
) -> ExperimentResult:
    """Measure d-rename time for each (backend, device) mode.

    The reported series is modeled virtual time (deterministic).  Pass
    ``measure_wall=True`` to also collect informational wall-clock times
    of the Python data-structure work in ``extras["wall_seconds"]``.
    """
    rows: dict[str, dict] = {}
    wall: dict[str, dict] = {}
    for backend in ("btree", "hash"):
        for device in (HDD, SSD):
            label = f"{backend}-{device.name}"
            dms = _build_dms(backend, device, group_sizes, base_dirs)
            rows[label] = {}
            wall[label] = {}
            for n in group_sizes:
                before = dms.meter.snapshot()
                w0 = time.perf_counter() if measure_wall else 0.0
                moved = dms.op_rename(f"/grp{n}", f"/renamed{n}", ROOT_CRED)
                if measure_wall:
                    wall[label][n] = time.perf_counter() - w0
                assert moved == n, f"expected {n} relocations, got {moved}"
                rows[label][n] = (dms.meter.snapshot() - before) / 1e6  # seconds
    res = ExperimentResult(
        experiment="Fig. 14",
        title="d-rename time vs number of renamed directories",
        col_header="mode \\ #dirs renamed",
        columns=list(group_sizes),
        rows=rows,
        unit="modeled seconds",
        fmt="{:,.3f}",
    )
    if measure_wall:
        # informational only — host-dependent, never part of the reported rows
        res.extras["wall_seconds"] = wall
    smallest = group_sizes[0]
    res.notes.append(
        f"renaming {smallest:,} of ~{base_dirs + sum(group_sizes):,} dirs: "
        f"hash-hdd {rows['hash-hdd'][smallest]:.3f}s vs btree-hdd "
        f"{rows['btree-hdd'][smallest]:.3f}s "
        f"({rows['hash-hdd'][smallest]/max(rows['btree-hdd'][smallest],1e-9):.1f}x) — "
        "the hash mode's cost is a floor set by the total namespace size "
        "(full scan), the B+-tree's is linear in the dirs actually moved"
    )
    res.notes.append(
        "hdd vs ssd differ little (sequential log writes), as in the paper"
    )
    return res
