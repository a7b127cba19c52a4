"""Figure 16 — availability under metadata-server failure (beyond the
paper): goodput and recovery behaviour of LocoFS variants while one
metadata server crashes and restarts mid-run.

Two scenarios, each a closed-loop create wave on the event engine with a
:class:`~repro.sim.faults.FaultSchedule` crashing the victim at 30 % of
the (baseline-measured) wave and restarting it 20 % later:

* **FMS crash** — ``fms0`` dies under LocoFS-C (per-op RPCs) and
  LocoFS-B (write-behind batching).  Both must report *zero lost acked
  creates*: the FMS replays its WAL before serving and LocoFS-B's
  re-queued flush is answered from its reply cache (exactly-once retry).
* **DMS crash** — the single directory server dies under LocoFS-C and
  LocoFS-NC.  The client directory cache's leases mask the outage for
  already-resolved paths, so LocoFS-C keeps creating while LocoFS-NC
  (no cache) stalls until recovery — the paper's §3.2.2 lease rationale
  made measurable.
"""

from __future__ import annotations

from repro.harness import run_availability
from repro.sim.costmodel import CostModel

from .common import ExperimentResult

#: (row label, system, crash victim)
SCENARIOS = (
    ("LocoFS-C / FMS crash", "locofs-c", "fms0"),
    ("LocoFS-B / FMS crash", "locofs-b", "fms0"),
    ("LocoFS-C / DMS crash", "locofs-c", "dms"),
    ("LocoFS-NC / DMS crash", "locofs-nc", "dms"),
)

COLUMNS = ["goodput IOPS", "baseline IOPS", "unavail ms", "lost acked",
           "retries", "gaveups"]


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
    for label, system, victim in SCENARIOS:
        r = run_availability(
            system, num_servers=num_servers, crash_server=victim,
            num_clients=num_clients, items_per_client=items_per_client,
            crash_at_frac=crash_at_frac, down_frac=down_frac, seed=seed,
            cost=cost,
        )
        rows[label] = {
            "goodput IOPS": r.goodput_iops,
            "baseline IOPS": r.baseline_iops,
            "unavail ms": r.unavailability_us / 1_000.0,
            "lost acked": r.lost_acked,
            "retries": r.retries,
            "gaveups": r.gaveups,
        }
        extras["timelines"][label] = r.timeline
    result = ExperimentResult(
        experiment="Fig. 16",
        title=f"availability under a crash/recover schedule "
              f"({num_servers} FMS, {num_clients} clients, "
              f"down {down_frac:.0%} of the wave)",
        col_header="scenario",
        columns=COLUMNS,
        rows=rows,
        unit="",
        fmt="{:,.1f}",
        notes=[
            "beyond the paper: WAL replay + idempotent batch retry must keep "
            "'lost acked' at 0 for every WAL-backed variant",
            "'unavail ms' is the widest gap between consecutive acked creates "
            "during the measured wave (the outage notch)",
        ],
    )
    result.extras.update(extras)
    return result
