"""Figure 19 — replicated directory service under leader failure (beyond
the paper): what quorum replication buys over the single-DMS design when
the directory tier itself dies.

Reruns Fig. 16's worst case — the directory server crashing mid-wave —
for two cacheless systems, so the comparison isolates what the *service*
provides rather than what client leases mask:

* **LocoFS-NC / DMS crash** — the paper's single DMS dies.  Every
  uncached create needs a directory lookup, so goodput collapses for the
  whole crash-restart-replay window (the Fig. 16 finding).
* **LocoFS-R / leader crash** — the same workload on the replicated,
  partitioned DMS (:mod:`repro.core.repldms`); the crashed victim is
  ``rdms0.0``, partition 0's initial leader.  Clients detect the dead
  leader (one RPC timeout), run the deterministic election against the
  surviving replicas, and resume against the new leader — the outage is
  a failover blip, not a recovery window.

Both rows must report **zero lost acked ops**: LocoFS-NC because the WAL
replays before the restarted DMS serves, LocoFS-R because an op is acked
only after a quorum of replicas hold it (a dead leader takes at most
unacknowledged work with it).  The headline contrast is the *goodput
dip*: bounded (< 20 %) for LocoFS-R where LocoFS-NC loses ~a quarter of
its baseline throughput to the outage.
"""

from __future__ import annotations

from repro.harness import run_availability
from repro.obs import MetricsRegistry, get_default_registry
from repro.sim.costmodel import CostModel

from .common import ExperimentResult

#: (row label, system, crash victim)
SCENARIOS = (
    ("LocoFS-NC / DMS crash", "locofs-nc", "dms"),
    ("LocoFS-R / leader crash", "locofs-r", "rdms0.0"),
)

COLUMNS = ["goodput IOPS", "baseline IOPS", "dip %", "unavail ms",
           "lost acked", "retries", "gaveups"]


def _failovers(metrics: MetricsRegistry) -> int:
    counter = metrics.counters.get("client.failover")
    return counter.value if counter is not None else 0


def run(
    num_servers: int = 4,
    num_clients: int = 8,
    items_per_client: int = 40,
    crash_at_frac: float = 0.3,
    down_frac: float = 0.2,
    seed: int = 0,
) -> ExperimentResult:
    cost = CostModel()
    rows: dict[str, dict] = {}
    extras: dict = {"timelines": {}}
    # the process-wide registry when one is set (``--metrics-out``), so a
    # row's failovers are the counter's growth across its run
    metrics = get_default_registry()
    if metrics is None:
        metrics = MetricsRegistry()
    for label, system, victim in SCENARIOS:
        failovers = _failovers(metrics)
        r = run_availability(
            system, num_servers=num_servers, crash_server=victim,
            num_clients=num_clients, items_per_client=items_per_client,
            crash_at_frac=crash_at_frac, down_frac=down_frac, seed=seed,
            cost=cost, metrics=metrics,
        )
        dip = (100.0 * (1.0 - r.goodput_iops / r.baseline_iops)
               if r.baseline_iops > 0 else 0.0)
        rows[label] = {
            "goodput IOPS": r.goodput_iops,
            "baseline IOPS": r.baseline_iops,
            "dip %": dip,
            "unavail ms": r.unavailability_us / 1_000.0,
            "lost acked": r.lost_acked,
            "retries": r.retries,
            "gaveups": r.gaveups,
        }
        extras["timelines"][label] = r.timeline
        extras[f"failovers:{label}"] = _failovers(metrics) - failovers
    result = ExperimentResult(
        experiment="Fig. 19",
        title=f"directory-tier failure: single DMS vs quorum-replicated "
              f"partitions ({num_clients} clients, down {down_frac:.0%} "
              f"of the wave)",
        col_header="scenario",
        columns=COLUMNS,
        rows=rows,
        unit="",
        fmt="{:,.1f}",
        notes=[
            "beyond the paper: LocoFS-R acks a directory mutation only after "
            "a replica quorum holds the log entry, so 'lost acked' must be 0 "
            "without waiting for the victim's WAL replay",
            "LocoFS-R's dip is the election timeout plus a handful of retried "
            "rounds; LocoFS-NC's is the full crash-restart-replay window",
            "both systems run cacheless so leases cannot mask the outage "
            "(cf. fig16's LocoFS-C rows)",
        ],
    )
    result.extras.update(extras)
    return result
