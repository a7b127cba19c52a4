"""Figure 1 — the performance gap between FS metadata and KV stores.

The paper plots file-create IOPS of Lustre, CephFS and IndexFS scaled from
1 to 32 metadata servers against a *single-node* Kyoto Cabinet (Tree DB)
line, showing that IndexFS needs ~32 servers to match one KV node.
"""

from __future__ import annotations

from repro.harness import LABELS, clients_for, run_throughput

from .common import ExperimentResult

DEFAULT_SYSTEMS = ("lustre-d1", "cephfs", "indexfs")
DEFAULT_SERVERS = (1, 2, 4, 8, 16, 32)


def run(
    systems=DEFAULT_SYSTEMS,
    server_counts=DEFAULT_SERVERS,
    items_per_client: int = 35,
    client_scale: float = 0.32,
) -> ExperimentResult:
    rows: dict[str, dict] = {}
    for name in systems:
        rows[LABELS[name]] = {}
        for k in server_counts:
            r = run_throughput(name, k, op="touch", items_per_client=items_per_client,
                               client_scale=client_scale)
            rows[LABELS[name]][k] = r.iops
    # the raw single-node KV line (flat across the x axis)
    kv = run_throughput(
        "rawkv", 1, op="put", items_per_client=items_per_client,
        num_clients=clients_for("rawkv", 1, client_scale) * 2,
    )
    rows[LABELS["rawkv"] + " (1 node)"] = {k: kv.iops for k in server_counts}
    res = ExperimentResult(
        experiment="Fig. 1",
        title="File-create IOPS: DFS metadata vs single-node KV store",
        col_header="system \\ #servers",
        columns=list(server_counts),
        rows=rows,
        unit="IOPS",
    )
    # where does each system catch the KV line?
    for name in systems:
        series = rows[LABELS[name]]
        catch = next((k for k in server_counts if series[k] >= kv.iops), None)
        res.notes.append(
            f"{LABELS[name]} reaches the single-node KV line at "
            + (f"{catch} servers" if catch else f">{server_counts[-1]} servers")
        )
    res.extras["kv_iops"] = kv.iops
    return res
