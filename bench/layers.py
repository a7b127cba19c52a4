"""Host-time attribution by layer, from a profiler the benchmark owns.

A layer is a module (or a small group of modules) of ``src/repro``; the
names below are the module names.  One ``cProfile`` pass around the
measured wave yields, per function, its call count and self time and, per
caller→callee pair, how often and for how long one called the other.
Folding functions into layers gives:

* ``<layer>.calls_per_op`` and ``<layer>.self_share`` (self time is the
  profiler's ``tottime``: time in the function minus time in its callees,
  which is exactly "span minus child spans" summed over the layer);
* *boundary spans* — every call whose caller and callee sit in different
  layers, aggregated per ``from->to`` edge with count and inclusive time.
  They are kept in memory and written to ``bench/out/`` when the run ends.

Call *counts* repeat exactly and are what ``py_calls_per_op`` reports;
*shares* inherit the profiler's distortion (it taxes Python calls, not C
work) and are for finding candidates, not for claiming gains.
"""

from __future__ import annotations

import cProfile

from . import ROOT, SRC

#: every layer a metric is reported for, in presentation order
LAYERS = (
    "harness", "core.client", "core.asyncclient", "core.lookupcache",
    "core.fms", "core.dms", "sim.engine", "sim.simulator", "kv", "kv.meter",
    "metadata", "common", "obs", "baselines", "py.builtin",
)

#: longest prefix wins; anything else under repro/ is ``common`` (that is
#: ``repro.common``, ``repro.fsbase`` and the deployment facade ``core.fs``)
_MODULE_LAYER = (
    ("repro/harness/", "harness"),
    ("repro/experiments/", "harness"),
    ("repro/core/client.py", "core.client"),
    ("repro/core/asyncclient.py", "core.asyncclient"),
    ("repro/core/lookupcache.py", "core.lookupcache"),
    ("repro/core/fms.py", "core.fms"),
    ("repro/core/dms.py", "core.dms"),
    ("repro/core/multidms.py", "core.dms"),
    ("repro/core/repldms.py", "core.dms"),
    ("repro/sim/simulator.py", "sim.simulator"),
    ("repro/sim/", "sim.engine"),
    ("repro/kv/meter.py", "kv.meter"),
    ("repro/kv/", "kv"),
    ("repro/metadata/", "metadata"),
    ("repro/obs/", "obs"),
    ("repro/baselines/", "baselines"),
)

_SRC = str(SRC) + "/"
_BENCH = str(ROOT / "bench") + "/"


def layer_of(code) -> str:
    """The layer a profiler entry's code belongs to."""
    if isinstance(code, str):          # C function: "<built-in method ...>"
        return "py.builtin"
    filename = code.co_filename
    if filename.startswith(_SRC):
        rel = filename[len(_SRC):]
        for prefix, layer in _MODULE_LAYER:
            if rel.startswith(prefix):
                return layer
        return "common"
    if filename.startswith(_BENCH):
        return "harness"               # the benchmark's own taps drive load
    return "py.builtin"                # stdlib Python (random, heapq, ...)


def _label(code) -> str:
    if isinstance(code, str):
        return code
    filename = code.co_filename
    if filename.startswith(_SRC):
        filename = filename[len(_SRC):]
    return f"{filename}:{code.co_firstlineno}({code.co_name})"


class LayerProfile:
    """A ``cProfile`` run, switchable from a measured-wave hook."""

    def __init__(self) -> None:
        self._prof = cProfile.Profile()

    def hook(self, active: bool) -> None:
        if active:
            self._prof.enable()
        else:
            self._prof.disable()

    def fold(self, ops: int, top: int = 12) -> dict:
        """Aggregate into layers; ``ops`` is the measured op count."""
        entries = [e for e in self._prof.getstats()
                   if not (isinstance(e.code, str) and "_lsprof.Profiler" in e.code)]
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        edges: dict[tuple[str, str], list] = {}
        hot: dict[str, list] = {layer: [] for layer in LAYERS}
        for e in entries:
            src = layer_of(e.code)
            calls[src] += e.callcount
            self_s[src] += e.inlinetime
            hot[src].append((e.inlinetime, e.callcount, _label(e.code)))
            for sub in e.calls or ():
                dst = layer_of(sub.code)
                if dst != src:
                    edge = edges.setdefault((src, dst), [0, 0.0])
                    edge[0] += sub.callcount
                    edge[1] += sub.totaltime
        total_calls = sum(calls.values())
        total_self = sum(self_s.values())
        return {
            "ops": ops,
            "total_calls": total_calls,
            "calls_per_op": total_calls / ops,
            "profiled_self_s": total_self,
            "layers": {
                layer: {
                    "calls_per_op": calls[layer] / ops,
                    "self_share": self_s[layer] / total_self if total_self else 0.0,
                    "self_s": self_s[layer],
                    "top_functions": [
                        {"function": name, "self_s": t, "calls": n}
                        for t, n, name in sorted(hot[layer], reverse=True)[:top]
                    ],
                }
                for layer in LAYERS
            },
            "boundary_spans": [
                {"from": src, "to": dst, "count": n, "inclusive_s": t}
                for (src, dst), (n, t) in sorted(
                    edges.items(), key=lambda kv: -kv[1][1])
            ],
        }
