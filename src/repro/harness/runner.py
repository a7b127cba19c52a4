"""Wave runner and closed-loop throughput (paper §4.2.2, Figs. 1/8/9/11/13).

Every harness entry point (``run_throughput``, ``run_mixed_throughput``,
:func:`~repro.harness.mdtest.run_latency`,
:func:`~repro.harness.openloop.run_openloop`,
:func:`~repro.harness.availability.run_availability`) follows the
paper's mdtest method through the three steps written once here:

1. :func:`resolve_sinks` — the sinks passed in, else the process-wide
   defaults of :mod:`repro.obs`;
2. :func:`build` — build the deployment, then ``attach_observability``
   only if a sink is set;
3. :func:`run_wave` — spawn each generator on a fresh
   ``engine.new_client()``, run the simulator dry, raise the first
   failure.

A runner keeps only its own generators and its result reducer.  The
closed-loop throughput runners spawn Table-3-many client processes on the
event engine in two waves: an unmeasured *setup* wave (working
directories, pre-created files/dirs for stat/remove phases) and a
*measured* wave in which every client performs ``items_per_client``
operations.  Aggregate IOPS = total measured ops / virtual elapsed time,
with queueing at the servers and client-side overhead both included — so
saturation (of a single DMS, of the client pool, of a journaling MDS)
emerges instead of being assumed.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import partial

from repro.common.errors import FSError
from repro.common.stats import iops
from repro.sim.costmodel import CostModel
from repro.sim.rpc import LocalCharge

from .registry import make_system
from .workloads import _OP_CALLS, Workload, ZipfPicker, clients_for


@dataclass
class ThroughputResult:
    system: str
    op: str
    num_servers: int
    num_clients: int
    total_ops: int
    elapsed_us: float
    iops: float
    #: each server's busy time over the measured wave (the set-up wave's
    #: work left out) as a fraction of the wave
    server_utilization: dict[str, float]
    #: the server with the most busy time over the measured wave, and that
    #: busy time as a fraction of the wave (the utilization law's U_max)
    busiest_server: str | None = None
    busiest_util: float | None = None


#: (tracer, metrics, telemetry) of a run that observes nothing
NO_SINKS = (None, None, None)


def resolve_sinks(tracer=None, metrics=None, telemetry=None) -> tuple:
    """Step 1: the sinks passed in, else the process-wide defaults (a
    tracer has none), as ``(tracer, metrics, telemetry)``."""
    from repro import obs

    if metrics is None:
        metrics = obs.get_default_registry()
    if telemetry is None:
        telemetry = obs.get_default_telemetry()
    return tracer, metrics, telemetry


def build(sinks: tuple, make, *args, **kwargs):
    """Step 2: ``make(*args, **kwargs)``, then attach ``sinks`` to its
    engine if any is set.  Callers pass the ``make_system`` global of
    their own module, resolved when they run."""
    system = make(*args, **kwargs)
    tracer, metrics, telemetry = sinks
    if tracer is not None or metrics is not None or telemetry is not None:
        system.engine.attach_observability(tracer=tracer, metrics=metrics,
                                           telemetry=telemetry)
    return system


def run_wave(engine, gens) -> None:
    """Step 3: one wave — spawn each generator on a fresh engine client,
    run the simulator dry, raise the first failure."""
    errors: list[BaseException] = []

    def on_done(value, exc):
        if exc is not None:
            errors.append(exc)

    for gen in gens:
        engine.spawn(gen, on_done, client=engine.new_client())
    engine.sim.run()
    if errors:
        raise errors[0]


def run_measured_wave(engine, gens) -> tuple[float, dict[str, float]]:
    """:func:`run_wave` for a measured wave: its virtual length, and each
    node's busy time within it — the busy time earlier waves left on a
    node (a set-up wave's creates) is not the measured wave's."""
    nodes = list(engine.cluster.nodes())
    busy0 = [n.busy_us for n in nodes]
    t0 = engine.sim.now
    run_wave(engine, gens)
    return (engine.sim.now - t0,
            {n.name: n.busy_us - b for n, b in zip(nodes, busy0)})


def _busiest(busy: dict[str, float], elapsed: float) -> tuple[str | None, float | None]:
    """The node with the most busy time, and that time over ``elapsed``."""
    if not busy:
        return None, None
    name = max(busy, key=busy.get)
    return name, busy[name] / elapsed if elapsed > 0 else None


def _drain_writebehind(client):
    """Flush a write-behind client's queues; no-op for everything else.

    Both waves end with this so pending batched creates are durable (and
    counted) before the wave's clock stops — the drain runs *inside* the
    measured generator, so its round trips are part of measured time.
    """
    gflush = getattr(client, "_g_flush", None)
    if gflush is not None:
        yield from gflush()


#: measured ops that need the client's ``items_per_client`` files
#: (directories) made in the setup wave
_NEEDS_FILES = frozenset(("file-stat", "rm", "chmod", "chown", "access",
                          "truncate", "open", "read", "write"))
_NEEDS_DIRS = frozenset(("dir-stat", "rmdir"))


def _resolver(client):
    """op name -> the callable a harness loop issues that op with, for
    loops that resolve each of their ops once: the client's generator
    function (``op_function``) when nothing is attached, else
    ``op_generator`` with its observability bracket."""
    eng = getattr(client, "_engine", None)
    try:
        bare = (eng.tracer is None and eng.metrics is None
                and eng.telemetry is None)
    except AttributeError:
        bare = True
    op_function = getattr(client, "op_function", None)
    if bare and op_function is not None:
        return op_function
    op_generator = client.op_generator
    return lambda name: partial(op_generator, name)


def _setup_gen(client, wl: Workload, cid: int, files: int = 0, dirs: int = 0):
    """Unmeasured preparation for one client: its working-directory chain,
    then ``files`` files and ``dirs`` directories in it, made durable."""
    resolve = _resolver(client)
    mkdir = resolve("mkdir")
    for path in wl.dir_chain(cid):
        yield from mkdir(path)
    wd = wl.work_dir(cid)
    if files:
        create = resolve("create")
        for n in range(files):
            yield from create(f"{wd}/f{n:06d}")
    for n in range(dirs):
        yield from mkdir(f"{wd}/m{n:06d}")
    yield from _drain_writebehind(client)


def _measured_gen(client, wl: Workload, cid: int, op: str, cost: CostModel, box: dict):
    # one shared LocalCharge: commands are read-only to the engines
    overhead = LocalCharge(cost.client_overhead_us)
    # the op's callable, its args builder and this client's work dir,
    # resolved once: one builder frame per op on every branch below
    name, args = _OP_CALLS[op]
    wd = wl.work_dir(cid)
    bracket = getattr(client, "op_bracket", None)
    telemetry = clock = None
    if bracket is not None:
        telemetry, clock = bracket()
    if telemetry is not None:
        # telemetry-only run: hoist the op bracket out of op_generator —
        # the same op_complete feed, without a wrapper frame per op
        call = client.op_function(name)
        op_complete = telemetry.op_complete
        span = "client." + name
        for n in range(wl.items_per_client):
            yield overhead
            t0 = clock.now
            try:
                yield from call(*args(wl, wd, n))
            except GeneratorExit:
                raise
            except BaseException as exc:
                op_complete(span, t0, clock.now, type(exc).__name__)
                raise
            op_complete(span, t0, clock.now)
            box["ops"] += 1
    else:
        call = _resolver(client)(name)
        for n in range(wl.items_per_client):
            yield overhead
            yield from call(*args(wl, wd, n))
            box["ops"] += 1
    yield from _drain_writebehind(client)


def _rawkv_setup(client, wl: Workload, cid: int, op: str):
    if op == "get":
        for n in range(wl.items_per_client):
            yield from client.op_generator("put", f"k{cid}-{n}".encode(), b"v" * 200)


def _rawkv_measured(client, wl: Workload, cid: int, op: str, cost: CostModel, box: dict):
    overhead = LocalCharge(cost.client_overhead_us)
    for n in range(wl.items_per_client):
        yield overhead
        if op == "put":
            yield from client.op_generator("put", f"k{cid}-{n}".encode(), b"v" * 200)
        else:
            yield from client.op_generator("get", f"k{cid}-{n}".encode())
        box["ops"] += 1


def run_throughput(
    system_name: str,
    num_servers: int,
    op: str = "touch",
    num_clients: int | None = None,
    items_per_client: int = 60,
    depth: int = 1,
    cost: CostModel | None = None,
    client_scale: float = 1.0,
    tracer=None,
    metrics=None,
    telemetry=None,
    system_factory=None,
) -> ThroughputResult:
    """One throughput cell: (system, op, #servers) -> aggregate IOPS.

    With ``metrics`` (or a default registry, see :mod:`repro.obs`) the
    event engine also samples per-server queue depth and busy-fraction
    over virtual time, and final utilization lands in ``<server>
    .utilization`` gauges.

    ``system_factory`` overrides system construction (it must return an
    event-engine deployment); ``system_name`` then only labels the result
    — fig15 uses this to sweep non-default batch budgets.
    """
    cost = cost or CostModel()
    sinks = tracer, metrics, telemetry = resolve_sinks(tracer, metrics, telemetry)
    if num_clients is None:
        num_clients = clients_for(system_name, num_servers, scale=client_scale)
    if system_factory is not None:
        system = build(sinks, system_factory)
    else:
        system = build(sinks, make_system, system_name, num_servers,
                       cost=cost, engine_kind="event")
    engine = system.engine
    wl = Workload(items_per_client=items_per_client, depth=depth)
    clients = [system.client() for _ in range(num_clients)]
    if system_name == "rawkv":
        setup = (_rawkv_setup(c, wl, cid, op) for cid, c in enumerate(clients))
        measured = _rawkv_measured
    else:
        files = items_per_client if op in _NEEDS_FILES else 0
        dirs = items_per_client if op in _NEEDS_DIRS else 0
        setup = (_setup_gen(c, wl, cid, files, dirs) for cid, c in enumerate(clients))
        measured = _measured_gen
    run_wave(engine, setup)
    box = {"ops": 0}
    elapsed, busy = run_measured_wave(
        engine, (measured(c, wl, cid, op, cost, box) for cid, c in enumerate(clients)))
    util = {name: min(1.0, b / elapsed) if elapsed > 0 else 0.0
            for name, b in busy.items()}
    busiest, busiest_util = _busiest(busy, elapsed)
    if metrics is not None:
        metrics.counter(f"harness.{system_name}.measured_ops").inc(box["ops"])
        for name, u in util.items():
            metrics.gauge(f"{name}.utilization").set(u)
    system.close()
    return ThroughputResult(
        system=system_name,
        op=op,
        num_servers=num_servers,
        num_clients=num_clients,
        total_ops=box["ops"],
        elapsed_us=elapsed,
        iops=iops(box["ops"], elapsed),
        server_utilization=util,
        busiest_server=busiest,
        busiest_util=busiest_util,
    )


# --- mixed-op workloads (Fig. 17) ------------------------------------------------

#: metadata-update-heavy mix: the regime where dependency-aware
#: write-behind (LocoFS-A) should pull ahead of create-only batching
#: (pure updates — reads would force dependent flushes and belong to the
#: read-mostly mix below)
MIX_UPDATE_HEAVY: dict[str, float] = {
    "create": 0.30,
    "chmod": 0.25,
    "chown": 0.10,
    "unlink": 0.15,
    "rename": 0.10,
    "mkdir": 0.10,
}

#: read-mostly mix over a pre-created pool: the lookup-cache regime
MIX_READ_MOSTLY: dict[str, float] = {
    "stat": 0.60,
    "access": 0.20,
    "open": 0.10,
    "chmod": 0.10,
}


@dataclass
class MixedThroughputResult:
    system: str
    num_servers: int
    num_clients: int
    total_ops: int
    elapsed_us: float
    iops: float
    op_counts: dict[str, int]
    errors: int
    cache_stats: dict[str, int] = field(default_factory=dict)
    cache_hit_rate: float | None = None
    #: measured-wave write-behind flushes by trigger (``full`` / ``age`` /
    #: ``read`` / ``dep`` / ``drain``), summed over clients; ``{}`` for a
    #: system without write-behind clients
    flush_causes: dict[str, int] = field(default_factory=dict)
    #: the server with the most busy time over the measured wave, and that
    #: busy time as a fraction of the wave (the utilization law's U_max)
    busiest_server: str | None = None
    busiest_util: float | None = None


def _flush_causes(clients) -> dict[str, int]:
    total: dict[str, int] = {}
    for client in clients:
        for reason, n in getattr(client, "flush_causes", {}).items():
            total[reason] = total.get(reason, 0) + n
    return total


#: mix ops that act on one file of the client's live set, drawn from
#: its hot end (Zipf) or uniformly
_HOT_OPS = frozenset(("chmod", "chown", "stat", "access", "open"))
#: mix op -> the client operation it issues
_MIX_CALLS = {"create": "create", "mkdir": "mkdir", "unlink": "unlink",
              "rename": "rename", "chmod": "chmod", "chown": "chown",
              "stat": "stat_file", "access": "access", "open": "open"}


def _mixed_gen(client, wl: Workload, cid: int, mix, cost: CostModel, box: dict,
               seed: int, zipf_s: float | None, pool: int):
    """One client's mixed-op stream, driven by a per-client seeded RNG.

    The client keeps a local model of its own namespace (per-client working
    directories never overlap), so every generated op is valid under
    sequential per-client semantics — which write-behind must preserve.
    ``FSError`` is still swallowed per op: a deferred error surfaces from
    whichever later op triggers the flush, and one bad op must not kill
    the whole client's stream.
    """
    rng = random.Random((cid * 2654435761 + seed) & 0xFFFFFFFF)
    ops = sorted(mix)
    weights = [mix[o] for o in ops]
    cum = []
    acc = 0.0
    for w in weights:
        acc += w
        cum.append(acc)
    # each draw is ``rng.choices(ops, cum_weights=cum)[0]`` written as the
    # expression ``random.choices`` evaluates — the same ``random()`` call
    # and bisect, so the same stream — without its helper calls per op
    draw = rng.random
    total = cum[-1] + 0.0
    hi = len(ops) - 1
    # the hot-set draw: one Zipf pick (inlined ``ZipfPicker.pick``) or a
    # uniform ``randrange`` on the op stream's RNG
    zcdf = zdraw = None
    if zipf_s:
        picker = ZipfPicker(max(pool, 1), zipf_s, seed=seed * 31 + cid)
        zcdf, zdraw = picker.cdf, picker.random
    live = [f"f{n:06d}" for n in range(pool)]
    fresh = pool
    dfresh = 0
    workdir = wl.work_dir(cid)
    overhead = LocalCharge(cost.client_overhead_us)
    # each mix op's call, resolved once
    resolve = _resolver(client)
    call = {}
    for op in (*ops, "create"):
        if op in _MIX_CALLS and op not in call:
            call[op] = resolve(_MIX_CALLS[op])
    done = dict.fromkeys(call, 0)  # ops issued, per mix op
    errors = 0

    for _ in range(wl.items_per_client):
        yield overhead
        op = ops[bisect_right(cum, draw() * total, 0, hi)]
        if not live and op in ("stat", "access", "open", "chmod", "chown",
                               "unlink", "rename"):
            op = "create"
        if op in _HOT_OPS:
            n = len(live)
            name = live[bisect_left(zcdf, zdraw()) % n if zcdf is not None
                        else rng.randrange(n)]
        try:
            # the read ops first: they are most of every read-heavy mix
            if op == "stat":
                yield from call["stat"](f"{workdir}/{name}")
            elif op == "access":
                yield from call["access"](f"{workdir}/{name}", 4)
            elif op == "open":
                yield from call["open"](f"{workdir}/{name}", 4)
            elif op == "chmod":
                yield from call["chmod"](
                    f"{workdir}/{name}", rng.choice((0o600, 0o640, 0o644)))
            elif op == "chown":
                yield from call["chown"](f"{workdir}/{name}", 1000 + fresh % 7, 1000)
            elif op == "create":
                name = f"f{fresh:06d}"
                fresh += 1
                yield from call["create"](f"{workdir}/{name}")
                live.append(name)
            elif op == "mkdir":
                yield from call["mkdir"](f"{workdir}/m{dfresh:06d}")
                dfresh += 1
            elif op == "unlink":
                name = live.pop(rng.randrange(len(live)))
                yield from call["unlink"](f"{workdir}/{name}")
            elif op == "rename":
                i = rng.randrange(len(live))
                src = live[i]
                dst = f"f{fresh:06d}"
                fresh += 1
                yield from call["rename"](f"{workdir}/{src}", f"{workdir}/{dst}")
                live[i] = dst
            else:
                raise ValueError(f"unknown mix op {op!r}")
        except FSError:
            errors += 1
        done[op] += 1
    # this client's counts join the run's once, before the drain
    box["ops"] += wl.items_per_client
    box["errors"] += errors
    per_op = box["per_op"]
    for op, n in done.items():
        if n:
            per_op[op] = per_op.get(op, 0) + n
    yield from _drain_writebehind(client)


def run_mixed_throughput(
    system_name: str,
    num_servers: int,
    mix: dict[str, float] | None = None,
    num_clients: int = 16,
    items_per_client: int = 60,
    depth: int = 1,
    pool: int = 20,
    zipf_s: float | None = None,
    seed: int = 0,
    cost: CostModel | None = None,
    metrics=None,
    telemetry=None,
) -> MixedThroughputResult:
    """Closed-loop mixed-op throughput on the event engine (Fig. 17).

    Every client pre-creates ``pool`` files (unmeasured), then performs
    ``items_per_client`` ops drawn from the weighted ``mix`` with a
    per-client seeded RNG — deterministic across runs and identical in
    op sequence for every system, so cells are comparable.  ``zipf_s``
    skews which live file the read/update ops target (hot-entry
    popularity); creates/unlinks/renames always pick uniformly so the
    namespace churns realistically.  When the deployment carries a
    lookup-cache tier, its hit/miss/invalidation counters and hit rate
    are returned in the result.
    """
    cost = cost or CostModel()
    mix = mix or MIX_UPDATE_HEAVY
    sinks = _, metrics, telemetry = resolve_sinks(None, metrics, telemetry)
    system = build(sinks, make_system, system_name, num_servers,
                   cost=cost, engine_kind="event")
    engine = system.engine
    wl = Workload(items_per_client=items_per_client, depth=depth)
    clients = [system.client() for _ in range(num_clients)]
    run_wave(engine, (_setup_gen(c, wl, cid, files=pool)
                      for cid, c in enumerate(clients)))

    cache = getattr(system, "lookup_cache", None)
    if cache is not None:
        # measure hit rate over the measured wave only
        cache.counters.clear()

    flushed = _flush_causes(clients)
    box = {"ops": 0, "errors": 0, "per_op": {}}
    elapsed, busy = run_measured_wave(
        engine, (_mixed_gen(c, wl, cid, mix, cost, box, seed, zipf_s, pool)
                 for cid, c in enumerate(clients)))
    busiest, busiest_util = _busiest(busy, elapsed)

    cache_stats: dict[str, int] = {}
    hit_rate = None
    if cache is not None:
        cache_stats = cache.counters.snapshot()
        hit_rate = cache.hit_rate()
    if metrics is not None:
        metrics.counter(f"harness.{system_name}.measured_ops").inc(box["ops"])
    system.close()
    return MixedThroughputResult(
        system=system_name,
        num_servers=num_servers,
        num_clients=num_clients,
        total_ops=box["ops"],
        elapsed_us=elapsed,
        iops=iops(box["ops"], elapsed),
        op_counts=dict(sorted(box["per_op"].items())),
        errors=box["errors"],
        cache_stats=cache_stats,
        cache_hit_rate=hit_rate,
        flush_causes={reason: n - flushed[reason]
                      for reason, n in _flush_causes(clients).items()},
        busiest_server=busiest,
        busiest_util=busiest_util,
    )
