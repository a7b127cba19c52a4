"""Plain-text table formatting for experiment reports.

Every benchmark prints the same rows/series the paper's figures plot, via
these helpers, so the bench output can be compared to the paper directly.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence


def format_table(
    title: str,
    col_header: str,
    columns: Sequence,
    rows: Mapping[str, Mapping],
    unit: str = "",
    fmt: str = "{:,.0f}",
) -> str:
    """Render ``rows[label][column] -> value`` as an aligned text table."""
    label_w = max([len(col_header)] + [len(str(r)) for r in rows]) + 2
    col_w = max(12, max((len(str(c)) for c in columns), default=8) + 2)
    out = [f"== {title}" + (f" ({unit})" if unit else "")]
    header = f"{col_header:<{label_w}}" + "".join(f"{str(c):>{col_w}}" for c in columns)
    out.append(header)
    out.append("-" * len(header))
    for label, series in rows.items():
        cells = []
        for c in columns:
            v = series.get(c)
            cells.append(f"{'—':>{col_w}}" if v is None else f"{fmt.format(v):>{col_w}}")
        out.append(f"{str(label):<{label_w}}" + "".join(cells))
    return "\n".join(out)


def format_metrics(registry) -> str:
    """Plain-text dump of a :class:`~repro.obs.metrics.MetricsRegistry`.

    Counters and gauges print one per line; histograms and time series get
    a small aligned table of their aggregates.
    """
    snap = registry.snapshot()
    out = ["== metrics"]
    if snap["counters"]:
        out.append("-- counters")
        width = max(len(n) for n in snap["counters"])
        for name, v in snap["counters"].items():
            out.append(f"  {name:<{width}}  {v:>14,}")
    if snap["gauges"]:
        out.append("-- gauges")
        width = max(len(n) for n in snap["gauges"])
        for name, v in snap["gauges"].items():
            out.append(f"  {name:<{width}}  {v:>14,.3f}")
    if snap["histograms"]:
        out.append("-- histograms (µs)")
        width = max(len(n) for n in snap["histograms"])
        out.append(f"  {'name':<{width}}  {'count':>9} {'mean':>11} {'p50':>11} "
                   f"{'p95':>11} {'p99':>11} {'max':>11}")
        for name, h in snap["histograms"].items():
            out.append(f"  {name:<{width}}  {h['count']:>9,} {h['mean']:>11,.1f} "
                       f"{h['p50']:>11,.1f} {h['p95']:>11,.1f} {h['p99']:>11,.1f} "
                       f"{h['max']:>11,.1f}")
    if snap["timeseries"]:
        out.append("-- time series")
        width = max(len(n) for n in snap["timeseries"])
        out.append(f"  {'name':<{width}}  {'samples':>9} {'mean':>11} {'max':>11}")
        for name, t in snap["timeseries"].items():
            out.append(f"  {name:<{width}}  {t['count']:>9,} {t['mean']:>11,.3f} "
                       f"{t['max']:>11,.3f}")
    return "\n".join(out)
