"""Bounded-memory metrics: counters, gauges, log-scale histograms, samplers.

The registry is the single naming authority for every metric in the
reproduction.  Names are dot-namespaced by layer — ``client.*`` for the
client library, ``dms.*`` / ``fms0.*`` for per-server metrics, ``*.kv.*``
for store operations — so a dump from any run reads the same way.

Histograms are the telemetry layer's log-bucket sketch under a name
(:class:`~repro.obs.telemetry.LogSketch`: 0.1 µs to 1e9 µs, 8 buckets per
decade) instead of unbounded sample lists: memory is constant no matter
how many operations a long run records, at the price of bucket-resolution
percentiles (one bucket spans a factor of ``10^(1/8)``; quantiles
interpolate linearly inside the bucket).
:class:`~repro.common.stats.LatencyRecorder` keeps exact samples for the
short paper experiments and mirrors into these histograms when a registry
is attached.

Time-series samplers record ``(virtual_ts, value)`` pairs — per-server
queue depth and busy-fraction in the event engine — and decimate
themselves once full, so they too are safe to leave on for long runs.
"""

from __future__ import annotations

import math

from .telemetry import LogSketch


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, by: int = 1) -> None:
        self.value += by


class Gauge:
    """A last-value-wins measurement."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram(LogSketch):
    """A :class:`~repro.obs.telemetry.LogSketch` under a registry name.

    Same buckets, record, quantile and snapshot as a telemetry window's
    sketch of the same samples; memory is constant however many values a
    long run records.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        super().__init__()
        self.name = name


class TimeSeries:
    """(virtual ts, value) samples with self-decimation at a fixed cap.

    When full, every other retained sample is dropped and the keep-stride
    doubles, so the series stays bounded while still covering the whole
    run.  Aggregates (count/mean/max) are exact regardless of decimation.
    """

    __slots__ = ("name", "maxlen", "samples", "_stride", "_skip",
                 "count", "total", "maximum", "last")

    def __init__(self, name: str, maxlen: int = 4096):
        self.name = name
        self.maxlen = maxlen
        self.samples: list[tuple[float, float]] = []
        self._stride = 1
        self._skip = 0
        self.count = 0
        self.total = 0.0
        self.maximum = -math.inf
        #: the most recent (ts, value) ever sampled — survives decimation
        self.last: tuple[float, float] | None = None

    def sample(self, ts_us: float, value: float) -> None:
        self.count += 1
        self.total += value
        if value > self.maximum:
            self.maximum = value
        self.last = (ts_us, value)
        if self._skip:
            self._skip -= 1
            return
        self.samples.append((ts_us, value))
        if len(self.samples) >= self.maxlen:
            # drop every other retained sample, choosing the parity that
            # keeps the newest one, so repeated halvings stay uniformly
            # spaced at the doubled stride and never lose the tail
            self.samples = self.samples[(len(self.samples) - 1) % 2::2]
            self._stride *= 2
        self._skip = self._stride - 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "max": self.maximum if self.count else math.nan,
            "last": list(self.last) if self.last is not None else None,
        }


class MetricsRegistry:
    """Named metrics, created on first use; one registry per run."""

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        self.series: dict[str, TimeSeries] = {}

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(name)
        return h

    def timeseries(self, name: str, maxlen: int = 4096) -> TimeSeries:
        t = self.series.get(name)
        if t is None:
            t = self.series[name] = TimeSeries(name, maxlen=maxlen)
        return t

    # -- export ----------------------------------------------------------------
    def snapshot(self) -> dict:
        """Flat, JSON-ready dump of every metric."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
            "histograms": {n: h.snapshot() for n, h in sorted(self.histograms.items())},
            "timeseries": {n: t.snapshot() for n, t in sorted(self.series.items())},
        }
