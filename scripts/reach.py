#!/usr/bin/env python3
"""List every function under ``src/`` that nothing enters.

Runs tier-1 (``pytest tests``), ``repro run all --quick`` and each
``examples/*.py``, all in this one process under ``sys.setprofile`` /
``threading.setprofile``, then prints each function defined under
``src/`` whose code no run entered, with its line count.  Abstract
methods and ``Protocol`` bodies are left out: nothing is meant to
enter them.  The hook is re-armed after every test, because the tests
that run cProfile replace it.

Run from the repository root (about 3 minutes; stdlib only):

    python scripts/reach.py              # print the list
    python scripts/reach.py --check 0    # and exit 1 if it holds more than 0

A function whose only callers are in ``bench/``, ``scripts/`` or a
subprocess shows up too, so grep those before deleting one.
"""

import argparse
import ast
import contextlib
import io
import os
import runpy
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _is_protocol(cls: ast.ClassDef) -> bool:
    return any((isinstance(b, ast.Name) and b.id == "Protocol")
               or (isinstance(b, ast.Attribute) and b.attr == "Protocol")
               for b in cls.bases)


def _is_abstract(fn) -> bool:
    return any((isinstance(d, ast.Name) and d.id == "abstractmethod")
               or (isinstance(d, ast.Attribute) and d.attr == "abstractmethod")
               for d in fn.decorator_list)


def functions():
    """``{(file, first line): (qualname, def line, line count)}`` for
    every function under ``src/``.  The first line is the first
    decorator's, which is what ``co_firstlineno`` holds."""
    found = {}

    def walk(node, path, prefix, in_protocol):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".",
                     _is_protocol(child))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (in_protocol or _is_abstract(child)):
                    first = min([d.lineno for d in child.decorator_list]
                                + [child.lineno])
                    found[(str(path), first)] = (
                        prefix + child.name, child.lineno,
                        child.end_lineno - child.lineno + 1)
                walk(child, path, prefix + child.name + ".<locals>.", False)
            else:
                walk(child, path, prefix, in_protocol)

    for path in sorted(SRC.rglob("*.py")):
        walk(ast.parse(path.read_text(), str(path)), path, "", False)
    return found


def run_everything(entered) -> list:
    """Run tier-1, the quick experiments and the examples under a
    profile hook that records each code object entered; return what
    failed."""
    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered[id(code)] = code

    def arm():
        sys.setprofile(hook)
        threading.setprofile(hook)

    class Rearm:
        def pytest_runtest_teardown(self, item):
            arm()

    import pytest

    failed = []
    arm()
    try:
        if pytest.main(["-x", "-p", "no:cacheprovider",
                        str(ROOT / "tests")], plugins=[Rearm()]) != 0:
            failed.append("tier-1")
        arm()
        from repro.cli import main as repro_main
        with contextlib.redirect_stdout(io.StringIO()):
            if repro_main(["run", "all", "--quick"]) not in (0, None):
                failed.append("repro run all --quick")
        for example in sorted((ROOT / "examples").glob("*.py")):
            arm()
            argv = sys.argv
            sys.argv = [str(example)]
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    runpy.run_path(str(example), run_name="__main__")
            except SystemExit as exc:
                if exc.code not in (0, None):
                    failed.append(example.name)
            finally:
                sys.argv = argv
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", type=int, metavar="CEILING",
                    help="exit 1 if more than CEILING functions are unreached")
    args = ap.parse_args()

    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    entered = {}
    failed = run_everything(entered)
    reached = {(code.co_filename, code.co_firstlineno)
               for code in entered.values()}
    unreached = sorted((path, line, name, n)
                       for (path, first), (name, line, n)
                       in functions().items()
                       if (path, first) not in reached)

    print()
    for path, line, name, n in unreached:
        rel = Path(path).relative_to(ROOT)
        print(f"{rel}:{line}  {name}  ({n} lines)")
    total = sum(n for *_, n in unreached)
    print(f"unreached: {len(unreached)} functions ({total} lines)")
    if failed:
        print(f"runs that failed (the list is incomplete): {', '.join(failed)}")
        return 1
    if args.check is not None and len(unreached) > args.check:
        print(f"{len(unreached)} unreached > ceiling {args.check}: delete or "
              "test the new entries, or raise the ceiling in CI and say why "
              "in CHANGES.md")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
