"""``python3 -m bench --compare A.json B.json``: did B get worse than A?

One row per workload × end-to-end metric: both medians with their
quartiles, the ratio B ÷ A (A is the base), and a verdict.

``same`` / ``changed``
    Exact metrics (counts and virtual-time values, ``spec.EXACT``): they
    repeat bit-exactly for one commit, seed and scale, so *any* difference
    is a change.  ``changed`` turns into ``regressed`` when the difference
    is for the worse by more than the metric's bound.
``ok`` / ``improved`` / ``regressed``
    Noisy metrics (host time, memory): B's median against A's, using the
    bound in ``BENCHMARK.json``.  ``setup_s`` also gets an absolute floor:
    a difference, and quartile ranges, under 0.05 s are ``ok``.
``unresolved``
    Either side's interquartile range ÷ median exceeds the bound: the runs
    cannot tell a regression of that size from noise, so the row says so
    instead of saying "unchanged".

Also one line per workload comparing the *virtual-plane fingerprint*
(virtual clocks, per-server busy time, KV op counts).  A change meant only
to speed up the simulator must leave it identical.

Exit status 0 when every row is ``same``, ``ok`` or ``improved`` and every
fingerprint matches, 1 otherwise.
"""

from __future__ import annotations

import json
from pathlib import Path

from .spec import EXACT, SETUP_FLOOR_S, Metric, load_spec

QUIET = ("same", "ok", "improved")


def load_results(path: str) -> dict[str, dict]:
    """{workload: untraced result document} from either file shape."""
    doc = json.loads(Path(path).read_text())
    if "workloads" in doc:
        return {name: runs["untraced"] for name, runs in doc["workloads"].items()
                if "untraced" in runs}
    if doc.get("trace") != 0:
        raise SystemExit(f"{path}: not an untraced result; end-to-end "
                         "metrics come from --trace 0 runs")
    return {doc["workload"]: doc}


def _worse_by(metric: Metric, a: float, b: float) -> float:
    """How much worse B is than A, as a share of A (negative: better)."""
    delta = (a - b) if metric.better == "higher" else (b - a)
    return delta / abs(a) if a else (0.0 if delta == 0 else float("inf"))


def _iqr(m: dict) -> float:
    return m["q3"] - m["q1"] if "q1" in m else 0.0


def verdict(metric: Metric, a: dict, b: dict) -> str:
    worse = _worse_by(metric, a["value"], b["value"])
    if metric.name in EXACT:
        if a["value"] == b["value"]:
            return "same"
        return "regressed" if worse > metric.bound else "changed"
    if metric.name == "setup_s" and all(
            abs(x) < SETUP_FLOOR_S
            for x in (b["value"] - a["value"], _iqr(a), _iqr(b))):
        return "ok"     # too small for a ratio to mean anything
    if max(_iqr(a) / a["value"], _iqr(b) / b["value"]) > metric.bound:
        return "unresolved"
    if worse > metric.bound:
        return "regressed"
    return "improved" if worse < -metric.bound else "ok"


def _cell(m: dict) -> str:
    if "q1" in m:
        return f"{m['value']:.6g} [{m['q1']:.4g}, {m['q3']:.4g}]"
    return f"{m['value']:.10g}"


def compare(a: dict[str, dict], b: dict[str, dict]) -> tuple[list[str], bool]:
    """(report lines, everything quiet?)"""
    spec = load_spec()
    lines, quiet = [], True
    for name in spec.workloads:
        if name not in a or name not in b:
            if name in a or name in b:
                lines.append(f"== {name}: only in {'A' if name in a else 'B'}")
                quiet = False
            continue
        da, db = a[name], b[name]
        lines.append(f"== {name}")
        comparable = all(da[k] == db[k] for k in ("seed", "scale"))
        if not comparable:
            lines.append(f"   seed/scale differ (A: {da['seed']}/{da['scale']}, "
                         f"B: {db['seed']}/{db['scale']}): exact metrics are "
                         "not expected to match")
            quiet = False
        for mname, metric in spec.end_to_end.items():
            ma, mb = da["metrics"][mname], db["metrics"][mname]
            v = verdict(metric, ma, mb)
            quiet = quiet and v in QUIET
            ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
            lines.append(f"   {mname:22s} A {_cell(ma):34s} B {_cell(mb):34s} "
                         f"B/A {ratio:8.4f} (base A)  bound "
                         f"{metric.bound:<5g} {v}")
        match = da["fingerprint"] == db["fingerprint"]
        quiet = quiet and match
        lines.append(f"   virtual plane          A {da['fingerprint']}  "
                     f"B {db['fingerprint']}  "
                     + ("identical" if match else "DIFFERS"))
    return lines, quiet


def compare_files(path_a: str, path_b: str) -> int:
    lines, quiet = compare(load_results(path_a), load_results(path_b))
    print(f"A = {path_a}\nB = {path_b}")
    print("\n".join(lines))
    print("no regressed, changed or unresolved row" if quiet else
          "rows above need a look (regressed / changed / unresolved / DIFFERS)")
    return 0 if quiet else 1
