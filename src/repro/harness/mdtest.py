"""mdtest-style single-client latency runner (paper §4.2.1, Figs. 6/7/10).

Drives one client through the classic mdtest phases — mkdir, touch
(create), stat, remove, rmdir, readdir — on the Direct engine and records
the virtual-time latency of every operation.
"""

from __future__ import annotations

from repro.common.stats import LatencyRecorder
from repro.sim.costmodel import CostModel
from repro.sim.rpc import LocalCharge

from .registry import make_system
from .runner import _resolver, build, resolve_sinks
from .workloads import _OP_CALLS, Workload, ZipfPicker

#: phases in execution order; "touch" is mdtest's file-create
LATENCY_OPS = ("mkdir", "touch", "dir-stat", "file-stat", "readdir", "rm", "rmdir")

#: the Fig. 11 extension ops (modified mdtest, §4.2.5)
FILE_META_OPS = ("chmod", "chown", "access", "truncate")


def _measured(overhead: LocalCharge, call, args: tuple):
    """One measured operation including the client-side software path:
    the ``overhead`` charge, then ``call(*args)`` (the op's generator)."""
    yield overhead
    return (yield from call(*args))


def run_latency(
    system_name: str,
    num_servers: int,
    n_items: int = 100,
    depth: int = 1,
    cost: CostModel | None = None,
    ops: tuple[str, ...] = LATENCY_OPS,
    tracer=None,
    metrics=None,
    telemetry=None,
    zipf_s: float | None = None,
    zipf_seed: int = 0,
) -> LatencyRecorder:
    """Run the mdtest latency phases; returns per-op latency samples (µs).

    ``tracer``/``metrics``/``telemetry`` (see :mod:`repro.obs`) opt the
    run into span tracing, bounded metrics, and streaming windowed
    telemetry; with none (and no process-wide defaults set) nothing is
    recorded beyond the exact samples.

    ``zipf_s`` skews the *non-destructive* phases (dir-stat, file-stat and
    the Fig. 11 file-metadata ops): each of the ``n_items`` accesses picks
    its target by a Zipf(``zipf_s``) draw instead of visiting items
    sequentially — modeling hot-entry popularity, the regime where the
    LocoFS-A lookup-cache tier pays off.  ``None``/``0`` keeps the exact
    sequential (golden) behavior; create/remove phases always stay
    sequential so every path is created and removed exactly once.
    """
    cost = cost or CostModel()
    sinks = tracer, metrics, telemetry = resolve_sinks(tracer, metrics, telemetry)
    system = build(sinks, make_system, system_name, num_servers, cost=cost,
                   engine_kind="direct")
    engine = system.engine
    client = system.client()
    wl = Workload(items_per_client=n_items, depth=depth)
    rec = LatencyRecorder(registry=metrics, prefix=f"client.op.{system_name}.")

    for path in wl.dir_chain(0):
        client.mkdir(path)
    wd = wl.work_dir(0)
    # resolved once for every measured op: one shared charge (commands are
    # read-only to the engines), the op resolver (see ``_resolver``), and
    # the (possibly tapped) engine.run / rec.record
    overhead = LocalCharge(cost.client_overhead_us)
    resolve = _resolver(client)
    run = engine.run
    record = rec.record

    def phase(name: str, items) -> None:
        """One op resolution per phase; one engine.run and one
        rec.record per measured op."""
        op, args = _OP_CALLS[name]
        call = resolve(op)
        for n in items:
            t0 = engine.now
            run(_measured(overhead, call, args(wl, wd, n)))
            record(name, engine.now - t0)

    picker = ZipfPicker(n_items, zipf_s, seed=zipf_seed) if zipf_s else None

    def picks():
        """The targets of one non-destructive phase, in draw order."""
        if picker is None:
            return range(n_items)
        return [picker.pick() for _ in range(n_items)]

    if "mkdir" in ops:
        phase("mkdir", range(n_items))
    elif any(o in ops for o in ("dir-stat", "rmdir")):
        for n in range(n_items):
            client.mkdir(wl.dir_path(0, n))
    if "touch" in ops:
        phase("touch", range(n_items))
    elif any(o in ops for o in ("file-stat", "rm", "readdir") + FILE_META_OPS):
        for n in range(n_items):
            client.create(wl.file_path(0, n))
    if "dir-stat" in ops:
        phase("dir-stat", picks())
    if "file-stat" in ops:
        phase("file-stat", picks())
    for name in FILE_META_OPS:
        if name in ops:
            phase(name, picks())
    if "readdir" in ops:
        # the paper reads a directory holding 10 k entries; n_items stands in
        t0 = engine.now
        run(_measured(overhead, resolve("readdir"), (wd,)))
        record("readdir", engine.now - t0)
    if "rm" in ops:
        phase("rm", range(n_items))
    if "rmdir" in ops:
        phase("rmdir", range(n_items))
    system.close()
    return rec
