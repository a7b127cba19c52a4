"""Figure 10 — effects of the flattened directory tree.

Clients co-located with a single metadata server (loopback instead of
1 GbE), isolating the *software* path length.  IndexFS joins this
comparison.  The paper finds LocoFS lowest, IndexFS next (KV helps), and
CephFS/Gluster dominated by their software overheads (1/27 and 1/25 of
LocoFS's latency).
"""

from __future__ import annotations

from repro.harness import LABELS, run_latency
from repro.sim.costmodel import CostModel

from .common import ExperimentResult

DEFAULT_SYSTEMS = ("locofs-c", "indexfs", "lustre-d1", "cephfs", "gluster")
OPS = ("mkdir", "touch", "rm", "rmdir")


def run(systems=DEFAULT_SYSTEMS, n_items: int = 80) -> ExperimentResult:
    cost = CostModel().colocated()
    rows: dict[str, dict] = {}
    for name in systems:
        rec = run_latency(name, 1, n_items=n_items, cost=cost,
                          ops=("mkdir", "touch", "rm", "rmdir"))
        rows[LABELS[name]] = {op: rec.summary(op).mean for op in OPS}
    res = ExperimentResult(
        experiment="Fig. 10",
        title="Co-located (loopback) latency on a single server",
        col_header="system \\ op",
        columns=list(OPS),
        rows=rows,
        unit="µs",
        fmt="{:,.1f}",
    )
    loco = rows[LABELS["locofs-c"]]
    for other in ("cephfs", "gluster"):
        if other in systems:
            ratio = rows[LABELS[other]]["touch"] / loco["touch"]
            res.notes.append(
                f"{LABELS[other]} touch latency is {ratio:.0f}x LocoFS "
                "(paper: 27x CephFS, 25x Gluster)"
            )
    return res
