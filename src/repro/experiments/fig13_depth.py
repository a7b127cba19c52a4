"""Figure 13 — sensitivity of file-create throughput to directory depth.

Depth 1 → 32, LocoFS with/without client cache, 2 and 4 metadata servers.
Deeper trees mean longer ancestor ACL walks at the DMS; the client cache
absorbs most of the loss (paper: 220K→125K with cache vs 120K→50K without,
at 4 servers).
"""

from __future__ import annotations

from repro.harness import LABELS, run_throughput

from .common import ExperimentResult

DEFAULT_DEPTHS = (1, 2, 4, 8, 16, 32)
DEFAULT_CONFIGS = (("locofs-c", 2), ("locofs-c", 4), ("locofs-nc", 2), ("locofs-nc", 4))


def run(
    configs=DEFAULT_CONFIGS,
    depths=DEFAULT_DEPTHS,
    items_per_client: int = 35,
    client_scale: float = 0.4,
) -> ExperimentResult:
    rows: dict[str, dict] = {}
    for name, k in configs:
        label = f"{LABELS[name]} ({k} srv)"
        rows[label] = {}
        for depth in depths:
            r = run_throughput(name, k, op="touch", depth=depth,
                               items_per_client=items_per_client,
                               client_scale=client_scale)
            rows[label][depth] = r.iops
    res = ExperimentResult(
        experiment="Fig. 13",
        title="File-create throughput vs directory depth",
        col_header="config \\ depth",
        columns=list(depths),
        rows=rows,
        unit="IOPS",
    )
    for name, k in configs:
        label = f"{LABELS[name]} ({k} srv)"
        first, last = rows[label][depths[0]], rows[label][depths[-1]]
        res.notes.append(f"{label}: {first:,.0f} -> {last:,.0f} IOPS "
                         f"({100*last/first:.0f}% retained)")
    return res
