"""Figure 8 — throughput of touch/mkdir/rm/rmdir/file-stat/dir-stat while
scaling metadata servers 1 → 16 (closed loop, Table 3 client counts)."""

from __future__ import annotations

from repro.harness import LABELS, run_throughput

from .common import ExperimentResult

OPS = ("touch", "mkdir", "rm", "rmdir", "file-stat", "dir-stat")
#: per the paper's figure, Lustre D2 and LocoFS-NC are shown only for
#: touch/mkdir (they track D1 / LocoFS-C elsewhere)
DEFAULT_SYSTEMS = ("locofs-c", "locofs-nc", "lustre-d1", "lustre-d2", "cephfs", "gluster")
REDUCED_SYSTEMS = ("locofs-c", "lustre-d1", "cephfs", "gluster")
DEFAULT_SERVERS = (1, 2, 4, 8, 16)


def run(
    ops=OPS,
    server_counts=DEFAULT_SERVERS,
    systems=DEFAULT_SYSTEMS,
    items_per_client: int = 35,
    client_scale: float = 0.3,
) -> dict[str, ExperimentResult]:
    results: dict[str, ExperimentResult] = {}
    for op in ops:
        row_systems = systems if op in ("touch", "mkdir") else [
            s for s in systems if s in REDUCED_SYSTEMS or s not in DEFAULT_SYSTEMS
        ]
        rows: dict[str, dict] = {}
        for name in row_systems:
            rows[LABELS[name]] = {}
            for k in server_counts:
                r = run_throughput(name, k, op=op, items_per_client=items_per_client,
                                   client_scale=client_scale)
                rows[LABELS[name]][k] = r.iops
        results[op] = ExperimentResult(
            experiment="Fig. 8",
            title=f"{op} throughput vs #metadata servers",
            col_header="system \\ #servers",
            columns=list(server_counts),
            rows=rows,
            unit="IOPS",
        )
    return results
