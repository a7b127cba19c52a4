"""The benchmark's fixed facts: the contract file, instance sizes, statistics.

``BENCHMARK.json`` is the single list of workload and metric names; this
module loads it so the code, the self-tests and the compare mode cannot
drift from it.  Sizes live here because they are part of the definition of
each workload: a number is only comparable with another taken at the same
scale, and every result records the scale it ran at.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass
from functools import lru_cache

from . import ROOT

#: end-to-end metrics that are counts or virtual-time values: they repeat
#: bit-exactly for one (commit, seed, scale), so any difference at all is a
#: change — the compare mode treats the others (host time, memory) as noisy
EXACT = frozenset({
    "py_calls_per_op", "virt_iops", "virt_mean_us", "virt_p99_us", "ok_ratio",
    "err.rawkv_pct_1srv", "err.rawkv_pct_16srv", "err.indexfs_iops_x",
    "err.indexfs_lat_frac",
})

#: setup_s may move by this much, whatever the ratio, before it counts: at
#: 0.1-0.3 s a 20 % bound alone would be inside scheduler jitter
SETUP_FLOOR_S = 0.05

#: instance sizes.  ``full`` is sized for a 2-core container so that eleven
#: instances (set-up wave included) fit the 10 s a run measures; ``smoke``
#: is for the self-tests and proves plumbing, not performance.
SCALES: dict[str, dict] = {
    "full": {
        "min_repeats": 11,
        "calibration_iterations": 40_000,
        "create_storm": {"servers": 8, "clients": 130, "items": 150},
        "read_mostly": {"servers": 8, "clients": 130, "items": 120, "pool": 40},
        "async_mixed": {"servers": 8, "clients": 64, "items": 100, "pool": 50},
        "mdtest_direct": {"servers": 4, "n_items": 500},
        "paper_claims": {"items": 40, "client_scale": 0.4,
                         "latency_items": 1000,
                         "rename_group": 1000, "rename_base": 20000},
        "ladder": {"calls": 20000, "min_rounds": 3, "max_rounds": 5},
        #: the Tracer keeps every span (~10 per op), so its pass runs on an
        #: instance with this fraction of the items
        "trace_fraction": 0.2,
        "ref_repeats": 3,
    },
    "smoke": {
        "min_repeats": 2,
        "calibration_iterations": 2_000,
        "create_storm": {"servers": 8, "clients": 20, "items": 30},
        "read_mostly": {"servers": 8, "clients": 20, "items": 30, "pool": 10},
        "async_mixed": {"servers": 8, "clients": 12, "items": 40, "pool": 10},
        "mdtest_direct": {"servers": 4, "n_items": 60},
        "paper_claims": {"items": 5, "client_scale": 0.2,
                         "latency_items": 60,
                         "rename_group": 50, "rename_base": 400},
        "ladder": {"calls": 400, "min_rounds": 1, "max_rounds": 1},
        "trace_fraction": 0.5,
        "ref_repeats": 2,
    },
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str            # "higher" | "lower"
    bound: float | None    # end-to-end only


@dataclass(frozen=True)
class Spec:
    run_seconds: int
    workloads: tuple[str, ...]
    end_to_end: dict[str, Metric]
    per_layer: dict[str, Metric]


@lru_cache(maxsize=1)
def load_spec() -> Spec:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return Spec(
        run_seconds=doc["run_seconds"],
        workloads=tuple(w["name"] for w in doc["workloads"]),
        end_to_end={m["name"]: Metric(m["name"], m["unit"], m["better"], m["bound"])
                    for m in doc["end_to_end"]},
        per_layer={m["name"]: Metric(m["name"], m["unit"], m["better"], None)
                   for m in doc["per_layer"]},
    )


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them.

    One value is its own quartiles (exact metrics have a single sample).
    """
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an already sorted sample.

    Nearest rank returns a value that was actually observed, so virtual
    latencies stay bit-exact (no interpolation arithmetic to round).
    """
    n = len(sorted_values)
    rank = math.ceil(q * n - 1e-9)  # tolerance: 0.99 * 100 is 99.00000000000001
    return sorted_values[min(n, max(1, rank)) - 1]
