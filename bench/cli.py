"""Command line: one workload in this process, or all of them in children.

Two ways in, one code path behind them:

* ``python3 -m bench --workload W --seed N --seconds S --trace 0|1`` runs
  one workload *in this process* and prints, as the last line of standard
  output, the one-line JSON the ``BENCHMARK.json`` contract defines.
* ``python3 -m bench [--traced]`` runs every workload, each in its own
  child process (so ``peak_rss_mb`` is that workload's alone), and prints
  the metric tables.  ``--json OUT`` writes everything, with provenance.

``--compare A.json B.json`` reads two such files; see ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from . import ROOT, require_program
from .spec import load_spec

OUT_DIR = ROOT / "bench" / "out"


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", help="run this workload only, in-process")
    ap.add_argument("--seed", type=int, default=1,
                    help="workload seed (default 1)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="how long one run measures (default: run_seconds "
                         "of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end metrics, tracing off; "
                         "1: per-layer metrics from the traced passes")
    ap.add_argument("--traced", action="store_true",
                    help="all workloads: also run the traced passes; "
                         "with --workload: same as --trace 1")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny instances: proves plumbing, not performance")
    ap.add_argument("--json", metavar="OUT",
                    help="write the full result document(s) here")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                    help="compare two result files and exit")
    return ap


def provenance(seed: int, scale: str, wall_s: float) -> dict:
    """Where a result came from; every JSON result carries it."""
    try:
        # the ceiling keeps git from wandering above this checkout
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"      # e.g. an exported checkout
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit, "python": platform.python_version(),
        "nproc": os.cpu_count(), "cpu": cpu, "seed": seed, "scale": scale,
        "wall_s": wall_s,
    }


def format_table(doc: dict) -> str:
    """One workload's metrics, by name, with units; failed checks beside."""
    kind = "per-layer (traced)" if doc["trace"] else "end-to-end (untraced)"
    lines = [f"== {doc['workload']}  seed {doc['seed']}  scale {doc['scale']}  "
             f"{kind}  {doc['wall_s']:.1f} s  virtual plane {doc['fingerprint']}"]
    for name, m in doc["metrics"].items():
        spread = ""
        if "q1" in m:
            spread = f"  [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n {m['n']}]"
        elif m.get("n", 1) > 1:
            spread = f"  [n {m['n']}]"
        lines.append(f"  {name:38s} {m['value']:>16.6g} {m['unit']:<11s}{spread}")
    bad = [c for c in doc["checks"] if not c["ok"]]
    lines.append(f"  checks: {len(doc['checks']) - len(bad)} passed, "
                 f"{len(bad)} FAILED")
    for c in bad:
        lines.append(f"  FAILED {c['name']}: {c['detail']}")
    return "\n".join(lines)


def contract_line(doc: dict) -> str:
    """The one-line JSON of the BENCHMARK.json contract."""
    return json.dumps({
        "correct": doc["correct"], "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in doc["metrics"].items()},
    })


def _run_one(args, scale: str, seconds: float) -> int:
    require_program()
    from .run import Run

    trace = args.trace if args.trace is not None else int(args.traced)
    run = Run(args.workload, args.seed, seconds, scale)
    doc = run.traced() if trace else run.untraced()
    if args.json:
        doc["provenance"] = provenance(args.seed, scale, doc["wall_s"])
        Path(args.json).write_text(json.dumps(doc, indent=1) + "\n")
    print(format_table(doc))
    print(contract_line(doc))
    return 0 if doc["correct"] else 1


def _run_all(args, scale: str, seconds: float) -> int:
    """Every workload in its own child process; tables, then a verdict."""
    require_program()
    t0 = perf_counter()
    spec = load_spec()
    docs: dict[str, dict] = {}
    status = 0
    OUT_DIR.mkdir(exist_ok=True)
    for name in spec.workloads:
        for trace in ((0, 1) if args.traced else (0,)):
            out = OUT_DIR / f"{name}.{'traced' if trace else 'untraced'}.json"
            out.unlink(missing_ok=True)
            cmd = [sys.executable, "-m", "bench", "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(seconds),
                   "--trace", str(trace), "--json", str(out)]
            if args.smoke:
                cmd.append("--smoke")
            child = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                   text=True)
            if not out.exists():
                sys.stderr.write(child.stdout + child.stderr)
                print(f"== {name} trace {trace}: no result "
                      f"(exit {child.returncode})")
                status = 1
                continue
            doc = json.loads(out.read_text())
            print(format_table(doc), flush=True)
            docs.setdefault(name, {})["traced" if trace else "untraced"] = doc
            if child.returncode != 0 or not doc["correct"]:
                status = 1
    wall = perf_counter() - t0
    print(f"{len(docs)} workloads in {wall:.1f} s: "
          + ("all checks passed" if status == 0 else "CHECKS FAILED"))
    if args.json:
        Path(args.json).write_text(json.dumps({
            "provenance": provenance(args.seed, scale, wall),
            "workloads": docs,
        }, indent=1) + "\n")
    return status


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.compare:
        from .compare import compare_files
        return compare_files(*args.compare)
    spec = load_spec()
    scale = "smoke" if args.smoke else "full"
    seconds = args.seconds if args.seconds is not None else (
        0.2 if args.smoke else float(spec.run_seconds))
    if args.workload is None:
        return _run_all(args, scale, seconds)
    if args.workload not in spec.workloads:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {', '.join(spec.workloads)}", file=sys.stderr)
        return 2
    return _run_one(args, scale, seconds)
