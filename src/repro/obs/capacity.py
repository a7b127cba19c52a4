"""Capacity analysis: offered-load sweeps, knee detection, metastability.

The open-loop harness (:mod:`repro.harness.openloop`) produces one
measurement cell per (system, offered load); this module turns a column
of such cells into the capacity story FalconFS/CFS-style evaluations
lead with:

* the **goodput-vs-offered curve** — goodput tracks offered load 1:1
  until saturation, then flattens (and, metastably, falls);
* the **knee** — the first swept load where marginal goodput gain
  collapses (``Δgoodput/Δoffered`` below a threshold) *while* a tail
  signal fires: p99 inflecting versus the previous point, server queue
  depth still climbing at the horizon, or admission backlog/shedding
  appearing.  The tail conjunct keeps a flat-but-healthy plateau (e.g. a
  rate sweep that never reaches capacity) from being misread as a knee;
  if no point shows a tail signal the gain collapse alone is reported
  with ``reason="gain-only"``;
* the **metastable region** — loads where goodput drops *below* a level
  already sustained at a lower load (work wasted on ops that will be
  shed or abandoned), the signature of congestion collapse;
* **pre-knee vs at-knee phase attribution** — the PR-4 six-phase
  breakdown re-measured at the two loads, naming the phase that grew
  most into the knee (the *saturating phase*) per system.

Everything here is a pure function of the swept points (the knee
detector is exercised against a synthetic M/M/1 curve in tests); the
sweep driver at the bottom glues the harness, the detector, and the
attribution re-runs together for the CLI and fig18.
"""

from __future__ import annotations

import json

#: Marginal goodput gain (Δgoodput/Δoffered) below which the curve
#: counts as flat.  1.0 is lossless scaling; 0.5 means half of each
#: additional offered op is lost.
GAIN_THRESHOLD = 0.5

#: p99 inflection: the tail at this point is >= ratio x the previous
#: point's p99.
P99_RATIO = 1.4

#: Metastability: goodput below this fraction of the best goodput
#: sustained at any *lower* load.
METASTABLE_FRACTION = 0.9

SCHEMA_VERSION = 1


def _tail_signal(prev: dict, pt: dict) -> str | None:
    """The tail-side saturation signal at ``pt``, or None."""
    p99_prev = prev.get("p99", 0.0)
    if p99_prev > 0.0 and pt.get("p99", 0.0) >= P99_RATIO * p99_prev:
        return "p99-inflection"
    if pt.get("depth_slope", 0.0) > 0.0:
        return "queue-depth-rising"
    if pt.get("shed", 0) or pt.get("abandoned", 0) or pt.get("backlog", 0):
        return "admission-pressure"
    return None


def knee_point(points: list[dict],
               gain_threshold: float = GAIN_THRESHOLD) -> dict | None:
    """First swept point where goodput flattens while the tail inflects.

    ``points`` must be ordered by offered load; each needs ``offered``
    and ``goodput`` (ops/s) and optionally ``p99`` (us), ``depth_slope``,
    ``shed``/``abandoned``/``backlog``.  Returns ``{"index", "load",
    "offered", "goodput", "reason"}`` or None when the sweep never
    saturates.
    """
    fallback = None
    for i in range(1, len(points)):
        prev, pt = points[i - 1], points[i]
        d_offered = pt["offered"] - prev["offered"]
        if d_offered <= 0.0:
            continue
        gain = (pt["goodput"] - prev["goodput"]) / d_offered
        if gain >= gain_threshold:
            continue
        hit = {
            "index": i,
            "load": pt.get("load", pt["offered"]),
            "offered": pt["offered"],
            "goodput": pt["goodput"],
        }
        signal = _tail_signal(prev, pt)
        if signal is not None:
            hit["reason"] = f"gain<{gain_threshold:g} + {signal}"
            return hit
        if fallback is None:
            hit["reason"] = "gain-only"
            fallback = hit
    return fallback


def metastable_region(points: list[dict],
                      fraction: float = METASTABLE_FRACTION) -> list[int]:
    """Indices whose goodput fell below ``fraction`` x a previously
    sustained goodput — the congestion-collapse signature."""
    out = []
    best = 0.0
    for i, pt in enumerate(points):
        if best > 0.0 and pt["goodput"] < fraction * best:
            out.append(i)
        best = max(best, pt["goodput"])
    return out


def knee_ordering_ok(report: dict, slower: str, faster: str) -> bool:
    """True when ``faster`` saturates at a strictly higher load than
    ``slower`` (an undetected knee counts as "never saturated" = +inf).
    The CI gate asserts knee(locofs-b) > knee(locofs-nc) with this.
    """
    def knee_load(name: str) -> float:
        knee = report["systems"][name]["knee"]
        return float("inf") if knee is None else knee["load"]

    return knee_load(faster) > knee_load(slower)


# --- sweep driver ---------------------------------------------------------------

def _point(load: float, result) -> dict:
    agg = result.aggregate_quantiles()
    return {
        "load": load,
        "offered": result.offered_iops,
        "goodput": result.goodput_iops,
        "completed": result.completed,
        "completed_in_horizon": result.completed_in_horizon,
        "shed": result.shed,
        "abandoned": result.abandoned,
        "errors": result.errors,
        "p50": agg["p50"],
        "p99": agg["p99"],
        "p999": agg["p999"],
        "latency_us": result.latency_us,
        "wait_mean_us": result.wait_mean_us,
        "queue_peak": result.queue_peak,
        "backlog": result.backlog_at_horizon,
        "depth_slope": result.depth_slope,
        "conservation_ok": result.conservation_ok,
    }


def _phase_means(attribution: dict) -> dict[str, float]:
    """Completion-weighted mean microseconds per phase across op types."""
    totals: dict[str, float] = {}
    weight = 0
    for stats in attribution.get("ops", {}).values():
        n = stats.get("count", 0)
        for phase, us in stats.get("phase_mean_us", {}).items():
            totals[phase] = totals.get(phase, 0.0) + us * n
        weight += n
    if not weight:
        return {}
    return {p: v / weight for p, v in totals.items()}


def _busiest_phase(attribution: dict) -> str | None:
    """The phase with the largest completion-weighted share across ops."""
    totals: dict[str, float] = {}
    weight = 0.0
    for stats in attribution.get("ops", {}).values():
        n = stats.get("count", 0)
        for phase, share in stats.get("phase_share", {}).items():
            totals[phase] = totals.get(phase, 0.0) + share * n
        weight += n
    if not totals or weight == 0.0:
        return None
    return max(sorted(totals), key=lambda p: totals[p])


def saturating_phase(pre: dict, at: dict) -> str | None:
    """The phase that *grew* most (in weighted mean us) from the pre-knee
    load to the knee load.

    Share-based naming would always pick the biggest constant cost (the
    network RTT); saturation is the phase whose absolute time inflates as
    load crosses the knee — typically ``server_queue``.  Falls back to
    the at-knee busiest phase when nothing grew (degenerate sweeps).
    """
    pre_us = _phase_means(pre)
    at_us = _phase_means(at)
    growth = {p: at_us.get(p, 0.0) - pre_us.get(p, 0.0) for p in at_us}
    if growth:
        best = max(sorted(growth), key=lambda p: growth[p])
        if growth[best] > 0.0:
            return best
    return _busiest_phase(at)


def _attribution_at(system: str, num_servers: int, pack: str, load: float,
                    horizon_us: float, seed: int, **pack_kw) -> dict:
    """Traced re-run at one load -> six-phase breakdown."""
    from repro.harness.openloop import run_openloop
    from repro.obs import Tracer
    from repro.obs.analyze import attribution_report

    tracer = Tracer()
    run_openloop(system, num_servers, pack=pack, rate=load,
                 horizon_us=horizon_us, seed=seed, tracer=tracer,
                 metrics=None, telemetry=None,
                 traced_jobs=True, **pack_kw)
    report = attribution_report(tracer)
    ops = {
        op: {
            "count": stats["count"],
            "phase_share": stats["phase_share"],
            "phase_mean_us": {p: d["mean"]
                              for p, d in stats["phases_us"].items()},
        }
        for op, stats in report["ops"].items()
    }
    doc = {"ops": ops}
    doc["bottleneck_phase"] = _busiest_phase(doc)
    return doc


def sweep_capacity(
    systems: tuple[str, ...] = ("locofs-c", "locofs-b", "locofs-nc"),
    pack: str = "dl-pipeline",
    loads: tuple[float, ...] = (20_000.0, 40_000.0, 80_000.0, 160_000.0,
                                320_000.0),
    num_servers: int = 4,
    horizon_us: float = 200_000.0,
    seed: int = 0,
    attribution: bool = True,
    **pack_kw,
) -> dict:
    """Sweep offered load per system; detect knee + metastable region.

    Each cell runs on a fresh system and a fresh telemetry sink, so cells
    are independent and the whole report is a deterministic function of
    the arguments (``json.dumps(report, sort_keys=True)`` is
    byte-identical across runs — the acceptance criterion).  With
    ``attribution=True`` each system gets two extra traced runs, at the
    last pre-knee load and at the knee load.
    """
    from repro.harness.openloop import run_openloop
    from repro.obs.telemetry import TelemetrySink

    loads = tuple(sorted(loads))
    out: dict = {
        "schema": SCHEMA_VERSION,
        "pack": pack,
        "seed": seed,
        "horizon_us": horizon_us,
        "num_servers": num_servers,
        "loads": list(loads),
        "systems": {},
    }
    for system in systems:
        points = []
        for load in loads:
            sink = TelemetrySink()
            res = run_openloop(system, num_servers, pack=pack, rate=load,
                               horizon_us=horizon_us, seed=seed,
                               telemetry=sink, **pack_kw)
            points.append(_point(load, res))
        knee = knee_point(points)
        entry: dict = {
            "points": points,
            "knee": knee,
            "metastable": metastable_region(points),
        }
        if attribution and knee is not None:
            i = knee["index"]
            entry["attribution"] = {
                "pre_knee": dict(
                    load=loads[i - 1],
                    **_attribution_at(system, num_servers, pack, loads[i - 1],
                                      horizon_us, seed, **pack_kw)),
                "at_knee": dict(
                    load=loads[i],
                    **_attribution_at(system, num_servers, pack, loads[i],
                                      horizon_us, seed, **pack_kw)),
            }
            entry["saturating_phase"] = saturating_phase(
                entry["attribution"]["pre_knee"],
                entry["attribution"]["at_knee"])
        out["systems"][system] = entry
    return out


def format_capacity(report: dict) -> str:
    """Human-readable sweep summary (one table per system)."""
    lines = [f"capacity sweep: pack={report['pack']} "
             f"servers={report['num_servers']} "
             f"horizon={report['horizon_us']:.0f}us seed={report['seed']}"]
    for system, entry in report["systems"].items():
        lines.append("")
        lines.append(f"== {system} ==")
        lines.append(f"{'load':>10} {'offered':>10} {'goodput':>10} "
                     f"{'p50us':>8} {'p99us':>9} {'p999us':>9} "
                     f"{'shed':>7} {'backlog':>7}")
        meta = set(entry["metastable"])
        knee = entry["knee"]
        for i, pt in enumerate(entry["points"]):
            tag = ""
            if knee is not None and i == knee["index"]:
                tag = "  <- knee"
            if i in meta:
                tag += "  [metastable]"
            lines.append(
                f"{pt['load']:>10.0f} {pt['offered']:>10.0f} "
                f"{pt['goodput']:>10.0f} {pt['p50']:>8.0f} "
                f"{pt['p99']:>9.0f} {pt['p999']:>9.0f} "
                f"{pt['shed']:>7d} {pt['backlog']:>7d}{tag}")
        if knee is not None:
            lines.append(f"knee: load={knee['load']:.0f} "
                         f"goodput={knee['goodput']:.0f} ({knee['reason']})")
        else:
            lines.append("knee: none detected (sweep never saturated)")
        phase = entry.get("saturating_phase")
        if phase:
            lines.append(f"saturating phase at knee: {phase}")
    return "\n".join(lines)


def capacity_json(report: dict) -> str:
    """Canonical byte-stable encoding (sorted keys, no NaN)."""
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False)


__all__ = [
    "GAIN_THRESHOLD",
    "P99_RATIO",
    "METASTABLE_FRACTION",
    "knee_point",
    "metastable_region",
    "knee_ordering_ok",
    "saturating_phase",
    "sweep_capacity",
    "format_capacity",
    "capacity_json",
]
