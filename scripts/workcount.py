#!/usr/bin/env python3
"""Bytecodes and Python frames per op, for each benchmark workload.

Runs each workload in a fresh interpreter: one smoke-scale instance to
warm the program's caches, as the benchmark's own profiled pass finds
them, then one more under ``sys.settrace`` with opcode events switched on
during its measured waves (the sizes and the harness calls are the
benchmark's own, from ``bench.spec`` and ``bench.workloads``).  It prints,
per measured op:

* ``bytecodes/op`` — opcode events, i.e. bytecode instructions executed
  in Python frames (builtins run none);
* ``frames/op`` — Python frame entries, generator resumes included.

Both counts repeat exactly for one tree and one interpreter, but they are
per CPython release: a count is only comparable with one taken on the same
``sys.version``, which is printed with it.  Tracing every opcode slows an
instance many times over, so this runs the smoke scale, not the full one.
It needs CPython 3.10 or 3.11: from 3.12 on, ``sys.settrace`` is built on
``sys.monitoring`` and delivers no opcode events to a frame that turns
them on as it is entered, so the count would read 0.

Run from the repository root (stdlib only; about a second per workload)::

    python3 scripts/workcount.py                        # all five
    python3 scripts/workcount.py --max create_storm=1234 --max ...

``--max NAME=N`` exits 1 if ``NAME`` executes more than ``N`` bytecodes
per op; given any ``--max``, only the workloads it names are run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import require_program  # noqa: E402
from bench.calibrate import Calibration  # noqa: E402
from bench.spec import SCALES  # noqa: E402
from bench.workloads import WORKLOADS, run_instance  # noqa: E402


class OpcodeCount:
    """A measured-wave hook that counts opcode and frame-entry events."""

    def __init__(self) -> None:
        self.bytecodes = 0
        self.frames = 0

    def _opcode(self, frame, event, arg):
        if event == "opcode":
            self.bytecodes += 1
        return self._opcode

    def _call(self, frame, event, arg):
        self.frames += 1
        frame.f_trace_opcodes = True
        return self._opcode

    def hook(self, active: bool) -> None:
        sys.settrace(self._call if active else None)


def count(name: str) -> dict:
    """Bytecodes and frames per measured op of ``name``'s smoke instance,
    counted on its second instance in this process."""
    scale = SCALES["smoke"]
    calibration = Calibration(scale["calibration_iterations"])
    run_instance(WORKLOADS[name], scale[name], 1, calibration)
    counter = OpcodeCount()
    inst = run_instance(WORKLOADS[name], scale[name], 1, calibration,
                        measured_hook=counter.hook)
    return {"ops": inst.ops,
            "bytecodes_per_op": counter.bytecodes / inst.ops,
            "frames_per_op": counter.frames / inst.ops}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max", action="append", default=[], metavar="NAME=N",
                        help="fail if NAME runs more than N bytecodes per op")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:  # one workload in this interpreter, counts on stdout
        print(json.dumps(count(args.child)))
        return 0
    ceilings = {}
    for item in args.max:
        name, _, value = item.partition("=")
        ceilings[name] = float(value)
    names = list(ceilings) or list(WORKLOADS)
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")
    require_program()
    if sys.version_info >= (3, 12):
        parser.error("opcode counts need CPython 3.10 or 3.11: from 3.12 on, "
                     "sys.settrace delivers no opcode events here")

    print(f"python {sys.version.split()[0]} ({sys.version})")
    counts, over = {}, []
    for name in names:
        child = subprocess.run([sys.executable, __file__, "--child", name],
                               stdout=subprocess.PIPE, text=True, check=True)
        counts[name] = c = json.loads(child.stdout)
        line = (f"{name:14s} {c['bytecodes_per_op']:10.2f} bytecodes/op "
                f"{c['frames_per_op']:8.3f} frames/op  ({c['ops']} ops)")
        ceiling = ceilings.get(name)
        if ceiling is not None:
            line += f"  (<= {ceiling})"
            if c["bytecodes_per_op"] > ceiling:
                over.append(name)
        print(line, flush=True)
    for name in over:
        print(f"{name}: {counts[name]['bytecodes_per_op']:.2f} bytecodes/op "
              f"> {ceilings[name]}", file=sys.stderr)
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
