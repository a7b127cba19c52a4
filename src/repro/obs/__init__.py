"""Virtual-time observability: tracing, metrics, streaming telemetry, SLOs.

Attach a :class:`Tracer`, :class:`MetricsRegistry`, and/or
:class:`TelemetrySink` to an engine
(``engine.attach_observability(tracer, metrics, telemetry)``) and every
file-system op, RPC, queue wait, service period, and KV operation is
recorded in virtual time; :mod:`repro.obs.export` turns tracer output
into a Perfetto trace or a flat metrics dump, while the telemetry sink
aggregates online into bounded windowed state that
:mod:`repro.obs.slo` judges against declarative objectives and
:mod:`repro.obs.dashboard` renders as a self-contained HTML report.
Nothing here runs unless a run opts in.

The module-level *default registry* (and its telemetry twin) lets the
CLI switch observability on for code paths (the experiment modules)
that build their systems internally: harness entry points fall back to
them when no sink is passed explicitly.
"""

from .analyze import (
    PHASES,
    attribution_report,
    compare_attribution,
    format_attribution,
    heat_timelines,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, TimeSeries
from .slo import (Objective, SLOSpec, default_spec, evaluate_slo,
                  format_slo, openloop_spec, replicated_spec)
from .telemetry import LogSketch, TelemetrySink
from .tracer import Instant, KVTraceSink, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TimeSeries",
    "Instant",
    "KVTraceSink",
    "Span",
    "Tracer",
    "LogSketch",
    "TelemetrySink",
    "Objective",
    "SLOSpec",
    "default_spec",
    "openloop_spec",
    "replicated_spec",
    "evaluate_slo",
    "format_slo",
    "PHASES",
    "attribution_report",
    "compare_attribution",
    "format_attribution",
    "heat_timelines",
    "set_default_registry",
    "get_default_registry",
    "set_default_telemetry",
    "get_default_telemetry",
]

_default_registry: MetricsRegistry | None = None
_default_telemetry: TelemetrySink | None = None


def set_default_registry(registry: MetricsRegistry | None) -> MetricsRegistry | None:
    """Install (or clear, with ``None``) the process-wide fallback registry."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


def get_default_registry() -> MetricsRegistry | None:
    return _default_registry


def set_default_telemetry(sink: TelemetrySink | None) -> TelemetrySink | None:
    """Install (or clear, with ``None``) the process-wide fallback sink."""
    global _default_telemetry
    previous = _default_telemetry
    _default_telemetry = sink
    return previous


def get_default_telemetry() -> TelemetrySink | None:
    return _default_telemetry
