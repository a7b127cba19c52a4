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
from .workloads import _OP_CALLS, Workload, ZipfPicker

#: phases in execution order; "touch" is mdtest's file-create
LATENCY_OPS = ("mkdir", "touch", "dir-stat", "file-stat", "readdir", "rm", "rmdir")

#: the Fig. 11 extension ops (modified mdtest, §4.2.5)
FILE_META_OPS = ("chmod", "chown", "access", "truncate")


def _measured(client, cost: CostModel, call):
    """One measured operation including the client-side software path."""
    yield LocalCharge(cost.client_overhead_us)
    result = yield from client.op_generator(*call)
    return result


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
    from repro.obs import get_default_registry, get_default_telemetry

    cost = cost or CostModel()
    if metrics is None:
        metrics = get_default_registry()
    if telemetry is None:
        telemetry = get_default_telemetry()
    system = make_system(system_name, num_servers, cost=cost, engine_kind="direct")
    engine = system.engine
    if tracer is not None or metrics is not None or telemetry is not None:
        engine.attach_observability(tracer=tracer, metrics=metrics,
                                    telemetry=telemetry)
    client = system.client()
    wl = Workload(items_per_client=n_items, depth=depth)
    rec = LatencyRecorder(registry=metrics, prefix=f"client.op.{system_name}.")

    for path in wl.dir_chain(0):
        client.mkdir(path)
    wd = wl.work_dir(0)

    def timed(op: str, n: int) -> None:
        call = _OP_CALLS[op](wl, wd, n)
        t0 = engine.now
        engine.run(_measured(client, cost, call))
        rec.record(op, engine.now - t0)

    if zipf_s:
        picker = ZipfPicker(n_items, zipf_s, seed=zipf_seed)
        pick = lambda _n: picker.pick()  # noqa: E731
    else:
        pick = lambda n: n  # noqa: E731

    if "mkdir" in ops:
        for n in range(n_items):
            timed("mkdir", n)
    elif any(o in ops for o in ("dir-stat", "rmdir")):
        for n in range(n_items):
            client.mkdir(wl.dir_path(0, n))
    if "touch" in ops:
        for n in range(n_items):
            timed("touch", n)
    elif any(o in ops for o in ("file-stat", "rm", "readdir") + FILE_META_OPS):
        for n in range(n_items):
            client.create(wl.file_path(0, n))
    if "dir-stat" in ops:
        for n in range(n_items):
            timed("dir-stat", pick(n))
    if "file-stat" in ops:
        for n in range(n_items):
            timed("file-stat", pick(n))
    for op in FILE_META_OPS:
        if op in ops:
            for n in range(n_items):
                timed(op, pick(n))
    if "readdir" in ops:
        # the paper reads a directory holding 10 k entries; n_items stands in
        t0 = engine.now
        engine.run(_measured(client, cost, ("readdir", wd)))
        rec.record("readdir", engine.now - t0)
    if "rm" in ops:
        for n in range(n_items):
            timed("rm", n)
    if "rmdir" in ops:
        for n in range(n_items):
            timed("rmdir", n)
    close = getattr(system, "close", None)
    if close:
        close()
    return rec
