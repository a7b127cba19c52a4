"""Figure 9 — bridging the gap: DFS create throughput as a percentage of a
single-node raw KV store.

The paper's headline: LocoFS reaches ~38 % of the raw KV store with one
metadata server and approaches (then exceeds) the single-node KV line with
8–16 servers, versus ~18 % for IndexFS at comparable scale.
"""

from __future__ import annotations

from repro.harness import LABELS, clients_for, run_throughput

from .common import ExperimentResult

DEFAULT_SYSTEMS = ("locofs-c", "indexfs", "lustre-d1", "cephfs", "gluster")
DEFAULT_SERVERS = (1, 2, 4, 8, 16)


def run(
    systems=DEFAULT_SYSTEMS,
    server_counts=DEFAULT_SERVERS,
    items_per_client: int = 35,
    client_scale: float = 0.4,
) -> ExperimentResult:
    kv = run_throughput(
        "rawkv", 1, op="put", items_per_client=items_per_client,
        num_clients=clients_for("rawkv", 1, client_scale) * 2,
    )
    rows: dict[str, dict] = {}
    iops_rows: dict[str, dict] = {}
    for name in systems:
        rows[LABELS[name]] = {}
        iops_rows[LABELS[name]] = {}
        for k in server_counts:
            r = run_throughput(name, k, op="touch", items_per_client=items_per_client,
                               client_scale=client_scale)
            rows[LABELS[name]][k] = 100.0 * r.iops / kv.iops
            iops_rows[LABELS[name]][k] = r.iops
    res = ExperimentResult(
        experiment="Fig. 9",
        title=f"Create throughput as % of single-node raw KV ({kv.iops:,.0f} IOPS)",
        col_header="system \\ #servers",
        columns=list(server_counts),
        rows=rows,
        unit="% of raw KV",
        fmt="{:,.1f}",
    )
    res.extras["kv_iops"] = kv.iops
    res.extras["iops"] = iops_rows
    loco = rows[LABELS["locofs-c"]]
    res.notes.append(
        f"LocoFS-C: {loco[server_counts[0]]:.0f}% of raw KV at 1 server, "
        f"{loco[server_counts[-1]]:.0f}% at {server_counts[-1]} servers "
        "(paper: 38% and ~100%)"
    )
    return res
