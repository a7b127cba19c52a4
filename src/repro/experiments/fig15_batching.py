"""Figure 15 — write-behind batching (beyond the paper): create-heavy
throughput of LocoFS-B vs LocoFS-C while sweeping the client count and
the client batch budget.

Every cell is a closed-loop ``touch`` run on the event engine with 8
file-metadata servers.  LocoFS-C is the unbatched baseline; each
LocoFS-B row fixes ``BatchConfig.max_ops`` (the write-behind budget) so
the table shows how coalescing create RPCs converts round trips into
``apply_batch`` fan-in and where the benefit saturates — ``b=1``
degenerates to one op per Batch and should track the baseline.
"""

from __future__ import annotations

from repro.common.config import BatchConfig, ClusterConfig
from repro.core.fs import LocoFS
from repro.harness import run_throughput
from repro.sim.costmodel import CostModel

from .common import ExperimentResult

DEFAULT_BATCH_SIZES = (1, 2, 4, 8, 16)
DEFAULT_CLIENTS = (32, 64, 128)


def run(
    batch_sizes=DEFAULT_BATCH_SIZES,
    client_counts=DEFAULT_CLIENTS,
    num_servers: int = 8,
    items_per_client: int = 30,
    client_scale: float = 1.0,
) -> ExperimentResult:
    cost = CostModel()
    clients = [max(1, int(round(c * client_scale))) for c in client_counts]

    def factory(b: int):
        def make():
            return LocoFS(
                ClusterConfig(num_metadata_servers=num_servers,
                              batch=BatchConfig(enabled=True, max_ops=b)),
                cost=cost, engine_kind="event",
            )
        return make

    rows: dict[str, dict] = {"LocoFS-C": {}}
    for c, nc in zip(client_counts, clients):
        r = run_throughput("locofs-c", num_servers, op="touch",
                           num_clients=nc, items_per_client=items_per_client,
                           cost=cost)
        rows["LocoFS-C"][c] = r.iops
    for b in batch_sizes:
        label = f"LocoFS-B (b={b})"
        rows[label] = {}
        for c, nc in zip(client_counts, clients):
            r = run_throughput("locofs-b", num_servers, op="touch",
                               num_clients=nc, items_per_client=items_per_client,
                               cost=cost, system_factory=factory(b))
            rows[label][c] = r.iops

    result = ExperimentResult(
        experiment="Fig. 15",
        title=f"touch throughput vs #clients, batch budget sweep "
              f"({num_servers} servers)",
        col_header="system \\ #clients",
        columns=list(client_counts),
        rows=rows,
        unit="IOPS",
        notes=[
            "beyond the paper: LocoFS-B adds client write-behind + server "
            "group commit on top of LocoFS-C",
        ],
    )
    top = client_counts[-1]
    ref = 8 if 8 in batch_sizes else batch_sizes[-1]
    base = rows["LocoFS-C"][top]
    if base > 0:
        result.extras["speedup_b8_at_max_clients"] = (
            rows[f"LocoFS-B (b={ref})"][top] / base
        )
    return result
