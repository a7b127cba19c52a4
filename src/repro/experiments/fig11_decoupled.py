"""Figure 11 — effects of decoupled file metadata.

Modified mdtest with chmod / chown / access / truncate at 16 metadata
servers: LocoFS-DF (decoupled access/content parts, in-place field
updates) vs LocoFS-CF (one coupled value with (de)serialization), plus the
baselines for context.
"""

from __future__ import annotations

from repro.harness import LABELS, run_throughput

from .common import ExperimentResult

OPS = ("chmod", "chown", "access", "truncate")
DEFAULT_SYSTEMS = ("locofs-df", "locofs-cf", "lustre-d1", "cephfs", "gluster")


def run(
    systems=DEFAULT_SYSTEMS,
    num_servers: int = 16,
    items_per_client: int = 12,
    client_scale: float = 1.0,
) -> ExperimentResult:
    rows: dict[str, dict] = {}
    for name in systems:
        rows[LABELS[name]] = {}
        for op in OPS:
            r = run_throughput(name, num_servers, op=op,
                               items_per_client=items_per_client,
                               client_scale=client_scale)
            rows[LABELS[name]][op] = r.iops
    res = ExperimentResult(
        experiment="Fig. 11",
        title=f"File-metadata op throughput at {num_servers} servers (decoupling ablation)",
        col_header="system \\ op",
        columns=list(OPS),
        rows=rows,
        unit="IOPS",
    )
    df, cf = rows[LABELS["locofs-df"]], rows[LABELS["locofs-cf"]]
    for op in OPS:
        if cf[op]:
            res.notes.append(f"{op}: LocoFS-DF is {df[op]/cf[op]:.2f}x LocoFS-CF")
    return res
