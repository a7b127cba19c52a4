"""Closed-loop throughput runner (paper §4.2.2, Figs. 1/8/9/11/13).

Spawns Table-3-many client processes on the event engine.  Each run has
two waves: an unmeasured *setup* wave (working directories, pre-created
files/dirs for stat/remove phases) and a *measured* wave in which every
client performs ``items_per_client`` operations of one kind.  Aggregate
IOPS = total measured ops / virtual elapsed time, with queueing at the
servers and client-side overhead both included — so saturation (of a
single DMS, of the client pool, of a journaling MDS) emerges instead of
being assumed.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field

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
    server_utilization: dict[str, float]


def _drain_writebehind(client):
    """Flush a write-behind client's queues; no-op for everything else.

    Both waves end with this so pending batched creates are durable (and
    counted) before the wave's clock stops — the drain runs *inside* the
    measured generator, so its round trips are part of measured time.
    """
    gflush = getattr(client, "_g_flush", None)
    if gflush is not None:
        yield from gflush()


def _setup_gen(client, wl: Workload, cid: int, op: str):
    """Unmeasured preparation for one client."""
    for path in wl.dir_chain(cid):
        yield from client.op_generator("mkdir", path)
    if op in ("file-stat", "rm", "chmod", "chown", "access", "truncate", "open",
              "read", "write"):
        for n in range(wl.items_per_client):
            yield from client.op_generator("create", wl.file_path(cid, n))
    elif op in ("dir-stat", "rmdir"):
        for n in range(wl.items_per_client):
            yield from client.op_generator("mkdir", wl.dir_path(cid, n))
    yield from _drain_writebehind(client)


def _measured_gen(client, wl: Workload, cid: int, op: str, cost: CostModel, box: dict):
    # one shared LocalCharge: commands are read-only to the engines
    overhead = LocalCharge(cost.client_overhead_us)
    # the op's call builder and this client's work dir, resolved once: one
    # builder frame per op on every branch below
    build = _OP_CALLS[op]
    wd = wl.work_dir(cid)
    bracket = getattr(client, "op_bracket", None)
    telemetry = clock = None
    if bracket is not None:
        telemetry, clock = bracket()
    if telemetry is not None:
        # telemetry-only run: hoist the op bracket out of op_generator —
        # the same op_complete feed, without a wrapper frame per op
        op_raw = client.op_raw
        op_complete = telemetry.op_complete
        name = "client." + build(wl, wd, 0)[0]
        for n in range(wl.items_per_client):
            yield overhead
            t0 = clock.now
            try:
                yield from op_raw(*build(wl, wd, n))
            except GeneratorExit:
                raise
            except BaseException as exc:
                op_complete(name, t0, clock.now, type(exc).__name__)
                raise
            op_complete(name, t0, clock.now)
            box["ops"] += 1
    else:
        eng = getattr(client, "_engine", None)
        try:
            bare = (eng.tracer is None and eng.metrics is None
                    and eng.telemetry is None)
        except AttributeError:
            bare = True
        op_raw = getattr(client, "op_raw", None)
        if bare and op_raw is not None:
            # nothing attached: op_generator would hand back the raw
            # generator after re-checking the sinks per op — skip that
            for n in range(wl.items_per_client):
                yield overhead
                yield from op_raw(*build(wl, wd, n))
                box["ops"] += 1
        else:
            op_generator = client.op_generator
            for n in range(wl.items_per_client):
                yield overhead
                yield from op_generator(*build(wl, wd, n))
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
    from repro.obs import get_default_registry, get_default_telemetry

    cost = cost or CostModel()
    if metrics is None:
        metrics = get_default_registry()
    if telemetry is None:
        telemetry = get_default_telemetry()
    if num_clients is None:
        num_clients = clients_for(system_name, num_servers, scale=client_scale)
    if system_factory is not None:
        system = system_factory()
    else:
        system = make_system(system_name, num_servers, cost=cost, engine_kind="event")
    engine = system.engine
    if tracer is not None or metrics is not None or telemetry is not None:
        engine.attach_observability(tracer=tracer, metrics=metrics,
                                    telemetry=telemetry)
    wl = Workload(items_per_client=items_per_client, depth=depth)
    rawkv = system_name == "rawkv"

    errors: list[BaseException] = []

    def on_done(value, exc):
        if exc is not None:
            errors.append(exc)

    clients = [system.client() for _ in range(num_clients)]
    # --- setup wave (unmeasured) ---------------------------------------------
    for cid, client in enumerate(clients):
        gen = (_rawkv_setup if rawkv else _setup_gen)(client, wl, cid, op)
        engine.spawn(gen, on_done, client=engine.new_client())
    engine.sim.run()
    if errors:
        raise errors[0]
    t0 = engine.sim.now
    # --- measured wave ----------------------------------------------------------
    box = {"ops": 0}
    for cid, client in enumerate(clients):
        gen = (_rawkv_measured if rawkv else _measured_gen)(
            client, wl, cid, op, cost, box
        )
        engine.spawn(gen, on_done, client=engine.new_client())
    engine.sim.run()
    if errors:
        raise errors[0]
    elapsed = engine.sim.now - t0
    util = {
        name: system.cluster[name].utilization(elapsed)
        for name in system.cluster.names()
    }
    if metrics is not None:
        metrics.counter(f"harness.{system_name}.measured_ops").inc(box["ops"])
        for name, u in util.items():
            metrics.gauge(f"{name}.utilization").set(u)
    close = getattr(system, "close", None)
    if close:
        close()
    return ThroughputResult(
        system=system_name,
        op=op,
        num_servers=num_servers,
        num_clients=num_clients,
        total_ops=box["ops"],
        elapsed_us=elapsed,
        iops=iops(box["ops"], elapsed),
        server_utilization=util,
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


def _flush_causes(clients) -> dict[str, int]:
    total: dict[str, int] = {}
    for client in clients:
        for reason, n in getattr(client, "flush_causes", {}).items():
            total[reason] = total.get(reason, 0) + n
    return total


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
    picker = ZipfPicker(max(pool, 1), zipf_s, seed=seed * 31 + cid) if zipf_s else None
    live = [f"f{n:06d}" for n in range(pool)]
    fresh = pool
    dfresh = 0
    workdir = wl.work_dir(cid)
    overhead = LocalCharge(cost.client_overhead_us)
    per_op = box["per_op"]
    eng = getattr(client, "_engine", None)
    try:
        bare = (eng.tracer is None and eng.metrics is None
                and eng.telemetry is None)
    except AttributeError:
        bare = True
    # nothing attached: op_generator would hand back the raw generator
    # after re-checking the sinks per op (as in ``_measured_gen``)
    op_raw = getattr(client, "op_raw", None)
    run = op_raw if bare and op_raw is not None else client.op_generator

    def hot_index() -> int:
        if picker is not None:
            return picker.pick() % len(live)
        return rng.randrange(len(live))

    for _ in range(wl.items_per_client):
        yield overhead
        op = ops[bisect_right(cum, draw() * total, 0, hi)]
        if not live and op in ("stat", "access", "open", "chmod", "chown",
                               "unlink", "rename"):
            op = "create"
        try:
            if op == "create":
                name = f"f{fresh:06d}"
                fresh += 1
                yield from run("create", f"{workdir}/{name}")
                live.append(name)
            elif op == "mkdir":
                yield from run("mkdir", f"{workdir}/m{dfresh:06d}")
                dfresh += 1
            elif op == "unlink":
                name = live.pop(rng.randrange(len(live)))
                yield from run("unlink", f"{workdir}/{name}")
            elif op == "rename":
                i = rng.randrange(len(live))
                src = live[i]
                dst = f"f{fresh:06d}"
                fresh += 1
                yield from run(
                    "rename", f"{workdir}/{src}", f"{workdir}/{dst}")
                live[i] = dst
            elif op == "chmod":
                name = live[hot_index()]
                yield from run(
                    "chmod", f"{workdir}/{name}", rng.choice((0o600, 0o640, 0o644)))
            elif op == "chown":
                name = live[hot_index()]
                yield from run(
                    "chown", f"{workdir}/{name}", 1000 + fresh % 7, 1000)
            elif op == "stat":
                name = live[hot_index()]
                yield from run("stat_file", f"{workdir}/{name}")
            elif op == "access":
                name = live[hot_index()]
                yield from run("access", f"{workdir}/{name}", 4)
            elif op == "open":
                name = live[hot_index()]
                yield from run("open", f"{workdir}/{name}", 4)
            else:
                raise ValueError(f"unknown mix op {op!r}")
        except FSError:
            box["errors"] += 1
        box["ops"] += 1
        per_op[op] = per_op.get(op, 0) + 1
    yield from _drain_writebehind(client)


def _mixed_setup(client, wl: Workload, cid: int, pool: int):
    for path in wl.dir_chain(cid):
        yield from client.op_generator("mkdir", path)
    for n in range(pool):
        yield from client.op_generator("create", wl.file_path(cid, n))
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
    from repro.obs import get_default_registry, get_default_telemetry

    cost = cost or CostModel()
    mix = mix or MIX_UPDATE_HEAVY
    if metrics is None:
        metrics = get_default_registry()
    if telemetry is None:
        telemetry = get_default_telemetry()
    system = make_system(system_name, num_servers, cost=cost, engine_kind="event")
    engine = system.engine
    if metrics is not None or telemetry is not None:
        engine.attach_observability(metrics=metrics, telemetry=telemetry)
    wl = Workload(items_per_client=items_per_client, depth=depth)

    errors: list[BaseException] = []

    def on_done(value, exc):
        if exc is not None:
            errors.append(exc)

    clients = [system.client() for _ in range(num_clients)]
    for cid, client in enumerate(clients):
        engine.spawn(_mixed_setup(client, wl, cid, pool), on_done,
                     client=engine.new_client())
    engine.sim.run()
    if errors:
        raise errors[0]

    cache = getattr(system, "lookup_cache", None)
    if cache is not None:
        # measure hit rate over the measured wave only
        cache.counters.clear()

    t0 = engine.sim.now
    flushed = _flush_causes(clients)
    box = {"ops": 0, "errors": 0, "per_op": {}}
    for cid, client in enumerate(clients):
        engine.spawn(
            _mixed_gen(client, wl, cid, mix, cost, box, seed, zipf_s, pool),
            on_done, client=engine.new_client())
    engine.sim.run()
    if errors:
        raise errors[0]
    elapsed = engine.sim.now - t0

    cache_stats: dict[str, int] = {}
    hit_rate = None
    if cache is not None:
        cache_stats = cache.counters.snapshot()
        hit_rate = cache.hit_rate()
    if metrics is not None:
        metrics.counter(f"harness.{system_name}.measured_ops").inc(box["ops"])
    close = getattr(system, "close", None)
    if close:
        close()
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
    )
