#!/usr/bin/env python3
"""Check that what the product runs enters every function under ``src/``.

Two passes in this one process, under ``sys.setprofile`` /
``threading.setprofile``, record each code object entered.  The first
runs the product entry points:

* every row of the claims table ``tests/claims.py`` (through
  ``tests/test_claims.py``);
* ``repro run all --quick``, ``repro fsck-demo`` and ``repro list``;
* each ``examples/*.py``;
* every ``python -m repro ...`` command line in
  ``.github/workflows/ci.yml``, parsed from the file (files it writes
  under ``/tmp`` go to a scratch directory instead);
* each ``BENCHMARK.json`` workload at ``--smoke``, with ``--trace 0``
  and with ``--trace 1``.

The second runs tier-1 (``pytest tests``, less ``test_claims.py``,
which the first pass ran).  The hook is re-armed after every test and
every run, because the tests and the benchmark that run cProfile
replace it; what the benchmark's profiler saw while it held the hook
is read back from its stats.  Abstract methods and ``Protocol`` bodies
are left out: nothing is meant to enter them.

The script exits 1 when a run fails, when nothing at all enters a
function, when the product leaves a function unentered that
``scripts/reach_allowlist.txt`` does not list, or when an entry of
that file is stale (the product enters its function, or no such
function exists).  Each line of the allowlist is ``path:qualname``,
two or more spaces, and the reason the function stays although the
product never calls it; a line that starts with ``#`` is a comment.

Run from the repository root (about 4 minutes on a 2-core machine;
stdlib and pytest):

    python scripts/reach.py

The other scripts are not entry points: a function that only they
call shows up as product-unentered, so grep ``scripts/`` before
deleting one.
"""

import ast
import contextlib
import io
import os
import re
import runpy
import shlex
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ALLOWLIST = ROOT / "scripts" / "reach_allowlist.txt"
CI = ROOT / ".github" / "workflows" / "ci.yml"


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


def key(path, qualname: str) -> str:
    """The ``path:qualname`` that names a function in the allowlist."""
    return f"{Path(path).relative_to(ROOT)}:{qualname}"


def read_allowlist(path: Path = ALLOWLIST) -> list:
    """``[(line number, "path:qualname", reason)]``, in file order."""
    entries = []
    for n, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if line and not line.startswith("#"):
            name, *reason = re.split(r"\s{2,}", line, maxsplit=1)
            entries.append((n, name, "".join(reason)))
    return entries


def ci_commands(path: Path = CI) -> list:
    """``[(argv, expect_success)]`` for every ``python -m repro ...`` line
    of the CI workflow.  A line that an ``if`` opens is one CI expects to
    fail."""
    commands = []
    text = re.sub(r"\\\n\s*", " ", path.read_text())
    for line in text.splitlines():
        if "-m repro" not in line or line.lstrip().startswith("#"):
            continue
        lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
        lexer.whitespace_split = True
        tokens = list(lexer)
        for i in range(len(tokens) - 2):
            if tokens[i:i + 3] != ["python", "-m", "repro"]:
                continue
            argv = []
            for tok in tokens[i + 3:]:
                if tok in (";", "|", "||", "&&", ">", "then"):
                    break
                argv.append(tok)
            commands.append((argv, "if" not in tokens[:i]))
    return commands


#: every code object entered while the hook was armed, by id
ENTERED = {}


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        ENTERED[id(code)] = code


def arm():
    sys.setprofile(_hook)
    threading.setprofile(_hook)


class _Rearm:
    """pytest plugin: take the hook back after every test, because the
    tests that run cProfile replace it."""

    def pytest_runtest_teardown(self, item):
        arm()


def _pytest(*args) -> bool:
    import pytest

    return pytest.main(["-q", "-p", "no:cacheprovider", *args],
                       plugins=[_Rearm()]) == 0


def _run_bench(failed: list) -> None:
    sys.path.insert(0, str(ROOT))
    from bench.cli import main as bench_main
    from bench.layers import LayerProfile
    from bench.spec import load_spec

    measured = LayerProfile.hook

    def hook(self, active):
        # cProfile holds the profile hook while a measured wave runs: keep
        # what it saw, then take the hook back
        measured(self, active)
        if not active:
            ENTERED.update((id(e.code), e.code) for e in self._prof.getstats()
                           if not isinstance(e.code, str))
            arm()

    LayerProfile.hook = hook
    try:
        for workload in load_spec().workloads:
            for trace in ("0", "1"):
                arm()
                argv = ["--workload", workload, "--smoke", "--trace", trace]
                with contextlib.redirect_stdout(io.StringIO()):
                    if bench_main(argv) != 0:
                        failed.append("bench " + " ".join(argv))
    finally:
        LayerProfile.hook = measured


def run_product() -> list:
    """Run every product entry point; return the ones that failed."""
    from repro.cli import main as repro_main

    failed = []
    if not _pytest(str(ROOT / "tests" / "test_claims.py")):
        failed.append("tests/test_claims.py")

    with tempfile.TemporaryDirectory() as tmp:
        runs = {("run", "all", "--quick"): True, ("fsck-demo",): True,
                ("list",): True}
        runs.update((tuple(a.replace("/tmp/", tmp + "/") for a in argv), ok)
                    for argv, ok in ci_commands())
        for argv, expect_ok in runs.items():
            arm()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = repro_main(list(argv))
            if (code in (0, None)) != expect_ok:
                failed.append("repro " + " ".join(argv))

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

    _run_bench(failed)
    return failed


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    arm()
    try:
        failed = run_product()
        product = dict(ENTERED)
        arm()
        if not _pytest("-x", "--ignore", str(ROOT / "tests" / "test_claims.py"),
                       str(ROOT / "tests")):
            failed.append("tier-1")
    finally:
        sys.setprofile(None)
        threading.setprofile(None)

    def firsts(codes):
        return {(c.co_filename, c.co_firstlineno) for c in codes.values()}

    by_product, by_any = firsts(product), firsts(ENTERED)
    names = {}
    unentered, unlisted = [], []
    for (path, first), (qualname, line, n) in sorted(functions().items()):
        name = key(path, qualname)
        names.setdefault(name, []).append((path, first) in by_product)
        if (path, first) not in by_any:
            unentered.append((name, line, n))
        elif (path, first) not in by_product:
            unlisted.append((name, line, n))

    entries = read_allowlist()
    allowed = {name for _, name, _ in entries}
    unlisted = [u for u in unlisted if u[0] not in allowed]
    stale = [(n, name) for n, name, _ in entries
             if name not in names or all(names[name])]

    print()
    for title, rows in (("entered by nothing", unentered),
                        ("entered only by tier-1, and not allowlisted",
                         unlisted)):
        for name, line, n in rows:
            print(f"{title}: {name} (line {line}, {n} lines)")
    for n, name in stale:
        print(f"stale allowlist entry, line {n}: {name}")
    print(f"{len(allowed)} allowlisted, {len(unentered)} entered by nothing, "
          f"{len(unlisted)} unlisted, {len(stale)} stale")
    if failed:
        print(f"runs that failed (the lists are incomplete): "
              f"{', '.join(failed)}")
    if failed or unentered or unlisted or stale:
        print("delete what only its own tests call, or allowlist it in "
              f"{ALLOWLIST.relative_to(ROOT)} with a reason")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
