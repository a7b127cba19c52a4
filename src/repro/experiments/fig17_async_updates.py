"""Figure 17 — dependency-aware async updates + lookup-cache tier (beyond
the paper): mixed-op throughput of LocoFS-A vs LocoFS-B/LocoFS-C, and the
cache tier's hit rate under hot-entry (Zipf) skew.

Two sub-experiments, both closed-loop on the event engine:

* ``mix`` — aggregate IOPS across op mixes of increasing *deferrable*
  update share.  LocoFS-B only write-behinds creates, so its advantage
  decays as the mix shifts to setattr/unlink/rename; LocoFS-A defers all
  small metadata updates through the dependency graph and keeps batching.
* ``cache`` / ``hitrate`` — a read-mostly mix over a pre-created pool
  while sweeping the Zipf exponent ``s``.  The shared lookup-cache node
  (a near-zero-RTT switch hop) absorbs repeated getattr/access/open
  lookups; the hit-rate table shows the skew the tier needs to pay off.

Every cell replays the identical per-client op sequence (seeded RNG), so
systems differ only in how they execute it.
"""

from __future__ import annotations

from repro.harness import LABELS, MIX_UPDATE_HEAVY, run_mixed_throughput

from .common import ExperimentResult

#: op mixes with an increasing share of deferrable (non-create) updates
MIXES: dict[str, dict[str, float]] = {
    "create-heavy": {"create": 0.70, "stat": 0.20, "mkdir": 0.10},
    "update-heavy": MIX_UPDATE_HEAVY,
    "churn": {"create": 0.25, "unlink": 0.25, "chmod": 0.25,
              "rename": 0.15, "chown": 0.10},
}

DEFAULT_SYSTEMS = ("locofs-c", "locofs-b", "locofs-a")
DEFAULT_ZIPF = (0.0, 0.8, 1.2)

#: the cache sub-experiment's read-mostly mix (10% updates keep the
#: invalidation path honest — hit rate is measured with coherence on)
READ_MOSTLY = {"stat": 0.60, "access": 0.20, "open": 0.10, "chmod": 0.10}

#: the mix ops a LocoFS-A client serves through the lookup cache
CACHED_READS = ("stat", "access", "open")
#: the hit-rate table's second row
PER_READ = "hits per read"


def run(
    systems=DEFAULT_SYSTEMS,
    zipf_exponents=DEFAULT_ZIPF,
    num_servers: int = 4,
    num_clients: int = 16,
    items_per_client: int = 60,
    client_scale: float = 1.0,
) -> dict[str, ExperimentResult]:
    nc = max(2, int(round(num_clients * client_scale)))

    # --- sub-experiment A: throughput vs deferred-op mix -----------------------
    mix_rows: dict[str, dict] = {}
    for system in systems:
        mix_rows[LABELS[system]] = {}
        for mix_name, mix in MIXES.items():
            r = run_mixed_throughput(system, num_servers, mix=mix,
                                     num_clients=nc,
                                     items_per_client=items_per_client)
            mix_rows[LABELS[system]][mix_name] = r.iops

    mix_result = ExperimentResult(
        experiment="Fig. 17a",
        title=f"mixed-op throughput vs deferred-op mix "
              f"({num_servers} servers, {nc} clients)",
        col_header="system \\ mix",
        columns=list(MIXES),
        rows=mix_rows,
        unit="IOPS",
        notes=[
            "beyond the paper: LocoFS-A defers mkdir/unlink/rename/setattr "
            "through a per-path dependency graph; LocoFS-B batches creates only",
        ],
    )
    if "locofs-a" in systems and "locofs-b" in systems:
        b = mix_rows[LABELS["locofs-b"]]["update-heavy"]
        if b > 0:
            mix_result.extras["speedup_update_heavy_a_over_b"] = (
                mix_rows[LABELS["locofs-a"]]["update-heavy"] / b
            )

    # --- sub-experiment B: cache tier under Zipf skew --------------------------
    cache_items = max(items_per_client, items_per_client * 5 // 2)
    cache_rows: dict[str, dict] = {}
    hit_rows: dict[str, dict] = {LABELS["locofs-a"]: {}, PER_READ: {}}
    for system in ("locofs-b", "locofs-a"):
        if system not in systems:
            continue
        cache_rows[LABELS[system]] = {}
        for s in zipf_exponents:
            r = run_mixed_throughput(system, num_servers, mix=READ_MOSTLY,
                                     num_clients=nc,
                                     items_per_client=cache_items,
                                     pool=30, zipf_s=s or None)
            cache_rows[LABELS[system]][s] = r.iops
            if system == "locofs-a":
                hit_rows[LABELS["locofs-a"]][s] = 100.0 * (r.cache_hit_rate or 0.0)
                reads = sum(r.op_counts.get(op, 0) for op in CACHED_READS)
                hit_rows[PER_READ][s] = (100.0 * r.cache_stats.get("hits", 0) / reads
                                         if reads else 0.0)

    cache_result = ExperimentResult(
        experiment="Fig. 17b",
        title=f"read-mostly throughput vs Zipf exponent "
              f"({num_servers} servers, {nc} clients, pool 30)",
        col_header="system \\ zipf s",
        columns=list(zipf_exponents),
        rows=cache_rows,
        unit="IOPS",
    )
    hit_result = ExperimentResult(
        experiment="Fig. 17b",
        title="LocoFS-A lookup-cache hit rate vs Zipf exponent",
        col_header="metric \\ zipf s",
        columns=list(zipf_exponents),
        rows=hit_rows,
        unit="%",
        fmt="{:,.1f}",
        notes=[
            "hits/misses counted at the shared cache node over the measured "
            "wave; invalidations ride on write-behind flushes (zero stale reads)",
            "a read whose barrier just flushed its key skips the probe: neither "
            "hit nor miss, so the rate is per probe; 'hits per read' is per "
            "stat/access/open",
        ],
    )
    if hit_rows[LABELS["locofs-a"]]:
        top = max(zipf_exponents)
        hit_result.extras["hit_rate_at_max_skew"] = (
            hit_rows[LABELS["locofs-a"]][top] / 100.0
        )

    return {"mix": mix_result, "cache": cache_result, "hitrate": hit_result}
