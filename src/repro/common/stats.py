"""Lightweight statistics collection for experiments.

The harness records per-operation latencies (virtual microseconds) and
derives IOPS and percentile summaries.  Kept dependency-free on the hot
path; numpy is only used when summarising.

For long runs the exact sample lists here grow without bound; the
bounded-memory path is :mod:`repro.obs.metrics`.  :class:`LatencyRecorder`
and :class:`Counters` act as thin adapters onto it: given a
:class:`~repro.obs.metrics.MetricsRegistry` (the recorder at construction,
the counters through ``bind``), every sample/increment is mirrored into
the registry's namespaced histograms/counters while the exact-percentile
API stays available for the short paper experiments.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Summary:
    """Summary statistics over a latency sample (microseconds)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    minimum: float
    maximum: float


def _percentile(sorted_vals: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method).

    The nearest-rank ``round()`` variant biases p95/p99 by up to a whole
    sample on small runs; interpolating between the bracketing order
    statistics matches the convention the paper's plotting stack uses.
    """
    if not sorted_vals:
        return math.nan
    if len(sorted_vals) == 1:
        return sorted_vals[0]
    pos = q * (len(sorted_vals) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(sorted_vals) - 1)
    frac = pos - lo
    return sorted_vals[lo] + frac * (sorted_vals[hi] - sorted_vals[lo])


class LatencyRecorder:
    """Accumulates latency samples grouped by operation name."""

    def __init__(self, registry=None, prefix: str = "client.op."):
        self._samples: dict[str, list[float]] = defaultdict(list)
        self._registry = registry
        self._prefix = prefix

    def record(self, op: str, latency_us: float) -> None:
        self._samples[op].append(latency_us)
        if self._registry is not None:
            self._registry.histogram(self._prefix + op).record(latency_us)

    def count(self, op: str) -> int:
        return len(self._samples.get(op, ()))

    def ops(self) -> list[str]:
        return sorted(self._samples)

    def summary(self, op: str) -> Summary:
        vals = sorted(self._samples.get(op, ()))
        if not vals:
            return Summary(0, math.nan, math.nan, math.nan, math.nan, math.nan, math.nan)
        return Summary(
            count=len(vals),
            mean=sum(vals) / len(vals),
            p50=_percentile(vals, 0.50),
            p95=_percentile(vals, 0.95),
            p99=_percentile(vals, 0.99),
            minimum=vals[0],
            maximum=vals[-1],
        )


@dataclass
class Counters:
    """Simple named counters (RPCs issued, cache hits, KV ops, ...).

    ``bind`` mirrors the counts into a :class:`~repro.obs.metrics
    .MetricsRegistry` under a namespace (``dms.``, ``fms0.``, ...), so ad
    hoc handler counters and the registry report through one naming scheme.
    """

    values: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    _registry: object | None = None
    _namespace: str = ""

    def bind(self, registry, namespace: str = "") -> None:
        """Mirror increments (and current values) into ``registry``."""
        self._registry = registry
        self._namespace = namespace
        for name, v in self.values.items():
            registry.counter(namespace + name).inc(v)

    def inc(self, name: str, by: int = 1) -> None:
        self.values[name] += by
        if self._registry is not None:
            self._registry.counter(self._namespace + name).inc(by)

    def get(self, name: str) -> int:
        return self.values.get(name, 0)

    def snapshot(self) -> dict[str, int]:
        return dict(self.values)

    def clear(self) -> None:
        self.values.clear()


def iops(completed_ops: int, elapsed_us: float) -> float:
    """Operations per second given a virtual-time window in microseconds."""
    if elapsed_us <= 0:
        return 0.0
    return completed_ops / (elapsed_us / 1_000_000.0)
