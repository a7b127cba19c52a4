"""The repo benchmark: two planes (virtual time, host time), five workloads.

Everything here measures ``src/repro`` **from outside**, through its public
functions; nothing under ``src/`` knows this package exists.  Run it from
the repository root::

    python3 -m bench                      # every workload, untraced
    python3 -m bench --traced             # plus the per-layer traced passes
    python3 -m bench --compare A.json B.json

``BENCHMARK.json`` at the repository root is the contract (workload and
metric names, units, directions, bounds); ``bench/README.md`` explains it.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: the checkout this package sits in, and the program under test inside it
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The program is measured from source, in this checkout and no other: an
# installed ``repro`` elsewhere on the path would silently measure a
# different tree, so ``src`` goes first and ``require_program`` checks it.
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def require_program() -> None:
    """Fail unless ``repro`` imports from this checkout's ``src/``."""
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import the program under test "
                         f"from {SRC}: {exc}") from None
    origin = Path(repro.__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(f"bench: 'repro' resolved to {origin}, not to {SRC}; "
                         "refusing to measure a different tree")
