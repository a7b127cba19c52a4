"""The paper's shape claims as one table, and the operating points that
measure them.

A *point* is one experiment call at a fixed scale; it runs once per
process (:func:`point` caches it) and returns its *cells*, nested dicts
of numbers.  A :class:`Claim` is one row: one measured number — a cell,
or the ratio of two cells of the same point — and the interval it must
fall in, written ``"[lo, hi]"`` with ``(``/``)`` for an open end.  An
ordering ("LocoFS-C lowest of all") is one row per comparison.  A row
with a ``diverges`` reason is a known departure from the paper and is
expected to fail.

The table needs only ``repro``: ``tests/test_claims.py`` evaluates it;
select one figure by its row-id prefix, e.g.
``pytest tests/test_claims.py -k fig09``.  The ``*-tiny`` points are
miniature runs that pin each experiment's most load-bearing property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial

from repro.common.config import CacheConfig, ClusterConfig, DirectoryConfig
from repro.core.fs import LocoFS
from repro.core.fuse import O_CREAT, O_RDWR, LocoFuse
from repro.experiments import (
    fig01_gap,
    fig06_latency,
    fig07_latency_ops,
    fig08_throughput,
    fig09_bridging_gap,
    fig10_flattened,
    fig11_decoupled,
    fig12_fullsystem,
    fig13_depth,
    fig14_rename,
    fig15_batching,
    fig18_openloop,
    table1_access_matrix,
    table3_clients,
)
from repro.harness import TraceGenerator, make_system, run_latency
from repro.harness.runner import run_measured_wave
from repro.kv import HashStore
from repro.kv.meter import Meter
from repro.sim.costmodel import CostModel, KVCostPolicy
from repro.sim.rpc import LocalCharge, Sleep


@dataclass(frozen=True)
class Claim:
    point: str
    figure: str
    name: str
    #: the paper's value or sentence; ``None`` for a beyond-paper ablation
    paper: str | None
    cell: tuple
    bound: str
    #: the denominator cell when the measured number is a ratio
    over: tuple | None = None
    #: why the reproduction departs from the paper here (a strict xfail)
    diverges: str | None = None

    @property
    def id(self) -> str:
        return f"{self.point}.{self.name}"


def within(value: float, bound: str) -> bool:
    """Whether ``value`` lies in the interval ``bound``; an infinite end
    bounds nothing, so an infinite ratio (a count over zero) can pass."""
    lo, hi = (float(x) for x in bound[1:-1].split(","))
    above = lo <= value if bound[0] == "[" or math.isinf(lo) else lo < value
    below = value <= hi if bound[-1] == "]" or math.isinf(hi) else value < hi
    return above and below


def measure(claim: Claim) -> float:
    cells = point(claim.point)
    value = _cell(cells, claim.cell)
    if claim.over is None:
        return value
    den = _cell(cells, claim.over)
    if den:
        return value / den
    # a count of zero: equal cells are at ratio 1, anything above is inf
    return 1.0 if value == 0 else math.copysign(math.inf, value)


def _cell(cells: dict, path: tuple) -> float:
    for key in path:
        cells = cells[key]
    return cells


@cache
def point(name: str) -> dict:
    return POINTS[name]()


def _rows(results: dict) -> dict:
    return {key: res.rows for key, res in results.items()}


# -- benchmark-local runners ---------------------------------------------------


def shared_dir_tput(system_name: str, num_servers: int, clients: int = 120,
                    items: int = 20) -> tuple[float, float]:
    """N clients creating files in one shared directory: IOPS, and the
    busiest server's busy share of the measured wave."""
    system = make_system(system_name, num_servers, engine_kind="event")
    system.client().mkdir("/shared")

    def loop(cid):
        client = system.client()
        for i in range(items):
            yield LocalCharge(system.cost.client_overhead_us)
            yield from client.op_generator("create", f"/shared/c{cid:03d}_{i:04d}")

    elapsed, busy = run_measured_wave(system.engine, [loop(c) for c in range(clients)])
    close = getattr(system, "close", None)
    if close:
        close()
    return clients * items / (elapsed / 1e6), max(busy.values()) / elapsed


def readdir_latency(system_name: str, num_servers: int, entries: int) -> float:
    system = make_system(system_name, num_servers, cost=CostModel())
    client = system.client()
    client.mkdir("/big")
    for i in range(entries):
        client.create(f"/big/f{i:05d}")
    t0 = system.engine.now
    got = client.readdir("/big")
    latency = system.engine.now - t0
    assert len(got) == entries
    close = getattr(system, "close", None)
    if close:
        close()
    return latency


def run_backend(backend: str, n: int = 150) -> dict:
    # cache disabled so every op actually exercises the DMS store
    fs = LocoFS(ClusterConfig(num_metadata_servers=2, dms_backend=backend,
                              cache=CacheConfig(enabled=False)))
    c = fs.client()
    t0 = fs.engine.now
    for i in range(n):
        c.mkdir(f"/d{i:04d}")
    mkdir_us = (fs.engine.now - t0) / n
    t0 = fs.engine.now
    for i in range(n):
        c.stat_dir(f"/d{i:04d}")
    stat_us = (fs.engine.now - t0) / n
    t0 = fs.engine.now
    for i in range(n):
        c.rmdir(f"/d{i:04d}")
    rmdir_us = (fs.engine.now - t0) / n
    return {"mkdir": mkdir_us, "dir-stat": stat_us, "rmdir": rmdir_us}


def run_pair(n_ops: int = 60) -> dict:
    """Per-op virtual latency through locolib and through the FUSE mount."""
    fs = LocoFS(ClusterConfig(num_metadata_servers=4))
    native = fs.client()
    native.mkdir("/native")
    t0 = fs.engine.now
    for i in range(n_ops):
        native.create(f"/native/f{i}")
        native.stat_file(f"/native/f{i}")
    native_us = (fs.engine.now - t0) / (2 * n_ops)

    fuse = LocoFuse(fs.client())
    fuse.mkdir("/fused")
    t0 = fs.engine.now
    for i in range(n_ops):
        fd = fuse.open(f"/fused/f{i}", O_CREAT | O_RDWR)
        fuse.close(fd)
        fuse.stat(f"/fused/f{i}")
    # open+close+stat ≈ 3 syscalls but open-with-create issues 2 client ops
    fuse_us = (fs.engine.now - t0) / (2 * n_ops)
    return {"native": native_us, "fuse": fuse_us}


def run_lease(lease_s: float, n_ops: int = 400) -> dict:
    """DMS lookups and d-cache hit rate of ``n_ops`` creates in one
    directory, each after 2.5 ms of client think time: the run spans
    about 1.09 virtual s, so the 0.5 s lease expires and the 30 s one
    does not."""
    fs = LocoFS(ClusterConfig(
        num_metadata_servers=2,
        cache=CacheConfig(enabled=True, lease_seconds=lease_s),
    ))
    c = fs.client()
    c.mkdir("/w")
    dms_before = fs.cluster["dms"].requests_served
    for i in range(n_ops):
        fs.engine.run(_think(2500.0))
        c.create(f"/w/f{i}")
    return {"hit_rate": c.dcache.hit_rate,
            "dms_rpcs": fs.cluster["dms"].requests_served - dms_before}


def _think(us: float):
    yield Sleep(us)


def _partitioned(n_shards: int, **kw) -> LocoFS:
    return LocoFS(ClusterConfig(num_metadata_servers=1,
                                directory=DirectoryConfig(partitions=n_shards)), **kw)


def mkdir_throughput(n_shards: int, clients: int = 40, items: int = 20) -> float:
    fs = _partitioned(n_shards, engine_kind="event")
    engine = fs.engine
    done = [0]

    def loop(cid):
        client = fs.client()
        for i in range(items):
            yield LocalCharge(fs.cost.client_overhead_us)
            yield from client.op_generator("mkdir", f"/c{cid}x{i}")
            done[0] += 1

    t0 = engine.now
    for cid in range(clients):
        engine.spawn(loop(cid), client=engine.new_client())
    engine.sim.run()
    return done[0] / ((engine.now - t0) / 1e6)


def cold_stat_rpcs(n_shards: int, depth: int = 8) -> int:
    """Directory-tier requests of one cold ``stat_dir`` ``depth`` levels
    down; ``n_shards`` 0 is the paper's single DMS."""
    fs = _partitioned(n_shards)
    warm = fs.client()
    path = ""
    for i in range(depth):
        path += f"/d{i}"
        warm.mkdir(path)
    cold = fs.client()
    before = sum(fs.cluster[n].requests_served for n in fs.dms_servers)
    cold.stat_dir(path)
    return sum(fs.cluster[n].requests_served for n in fs.dms_servers) - before


def write_latency(replicas: int, size: int, n: int = 15) -> float:
    fs = LocoFS(ClusterConfig(num_metadata_servers=2, num_object_servers=6,
                              data_replicas=replicas))
    c = fs.client()
    c.mkdir("/d")
    t0 = fs.engine.now
    for i in range(n):
        c.create(f"/d/f{i}")
        c.write(f"/d/f{i}", 0, b"x" * size)
    return (fs.engine.now - t0) / n


def network_speedup(name: str) -> float:
    """Mean touch latency over the network over that with it removed."""
    slow = run_latency(name, 1, n_items=30, cost=CostModel()).summary("touch").mean
    fast = run_latency(name, 1, n_items=30, cost=CostModel().colocated()).summary("touch").mean
    return slow / fast


def value_size_cost(size: int) -> dict:
    """Modeled put+get cost of one value, raw and with the (de)serialization
    a coupled design pays."""
    cost = CostModel()
    meter = Meter(KVCostPolicy(cost))
    s = HashStore(meter=meter)
    s.put(b"k", b"v" * size)
    s.get(b"k")
    return {"raw": meter.total_us,
            "serialized": meter.total_us + 2 * cost.serialize_us(size)}


# -- operating points ------------------------------------------------------------

#: the value sizes of the §2.2.2 sweep, the lease durations of the lease
#: ablation, the I/O sizes of the replication ablation
SIZES_KV = (32, 256, 1024, 8192, 65536)
LEASES = (0.01, 0.05, 0.5, 30.0)
SIZES_REPL = (512, 65536, 1048576)
SHARED_SYSTEMS = ("locofs-c", "cephfs", "lustre-d1", "lustre-d2")


def _run_fig01(**kw) -> dict:
    res = fig01_gap.run(**kw)
    return {**res.rows, "kv": res.extras["kv_iops"]}


def _run_fig07() -> dict:
    rows = fig07_latency_ops.run(num_servers=16, n_items=50).rows
    pair = (rows["Lustre D1"], rows["Gluster"])
    return {**rows,
            "min(Lustre D1, Gluster)": {op: min(r[op] for r in pair) for op in rows["Gluster"]},
            "max(Lustre D1, Gluster)": {op: max(r[op] for r in pair) for op in rows["Gluster"]}}


def _run_fig08() -> dict:
    cells = _rows(fig08_throughput.run(server_counts=(1, 4, 16), items_per_client=25,
                                       client_scale=0.25))
    cells["mkdir 16/1"] = {s: r[16] / r[1] for s, r in cells["mkdir"].items()}
    return cells


def _run_fig11() -> dict:
    rows = fig11_decoupled.run(num_servers=16, items_per_client=12, client_scale=1.0).rows
    ops = ("chmod", "chown", "access", "truncate")
    return {**rows, "max DF/CF": max(rows["LocoFS-DF"][op] / rows["LocoFS-CF"][op]
                                     for op in ops)}


def _run_table3() -> dict:
    res = table3_clients.run(num_servers=4, step=10, max_clients=100, items_per_client=12)
    return {**{s: {**r, "peak": max(r.values())} for s, r in res.rows.items()},
            "knee": res.extras["knees"]}


def _run_trace() -> dict:
    gen = TraceGenerator(num_ops=200_000)
    share = gen.rename_share()
    hist = gen.op_histogram()
    meta = sum(hist.get(o, 0) for o in ("stat", "open", "create", "mkdir", "unlink"))
    return {"rename_share": share, "metadata_share": meta / sum(hist.values())}


def _run_shared_dir() -> dict:
    runs = {name: {k: shared_dir_tput(name, k) for k in (1, 8)} for name in SHARED_SYSTEMS}
    return {"iops": {n: {k: r[0] for k, r in rs.items()} for n, rs in runs.items()},
            "busiest": {n: {k: r[1] for k, r in rs.items()} for n, rs in runs.items()}}


def _run_fig18_tiny() -> dict:
    r = fig18_openloop.run(systems=("locofs-c", "locofs-nc"), packs=("dl-pipeline",),
                           loads=(20_000.0, 80_000.0), num_servers=2,
                           horizon_us=20_000.0, seed=0)["dl-pipeline"]
    return {"goodput": r.rows,
            # no knee inside the swept range: it lies beyond every load
            "knee": {s: math.inf if k is None else k for s, k in r.extras["knees"].items()},
            "saturating_phase": r.extras["saturating_phase"]}


POINTS = {
    "fig01": partial(_run_fig01, server_counts=(1, 2, 4, 8, 16, 32), items_per_client=30,
                     client_scale=0.3),
    "fig06": lambda: _rows(fig06_latency.run(server_counts=(1, 2, 4, 8, 16), n_items=50)),
    "fig07": _run_fig07,
    "fig08": _run_fig08,
    "fig09": lambda: fig09_bridging_gap.run(server_counts=(1, 2, 4, 8, 16), items_per_client=30,
                                            client_scale=0.35).rows,
    "fig10": lambda: fig10_flattened.run(n_items=60).rows,
    "fig10-network": lambda: {n: network_speedup(n) for n in ("locofs-c", "cephfs", "gluster")},
    "fig11": _run_fig11,
    "fig12": lambda: _rows(fig12_fullsystem.run(
        sizes=(512, 4096, 32768, 262144, 1048576, 4194304), n_files=25)),
    "fig13": lambda: fig13_depth.run(depths=(1, 2, 4, 8, 16, 32), items_per_client=25,
                                     client_scale=0.35).rows,
    "fig14": lambda: fig14_rename.run(group_sizes=(500, 1000, 2000, 5000), base_dirs=15000).rows,
    "table1": lambda: table1_access_matrix.run().rows,
    "table3": _run_table3,
    "trace": _run_trace,
    "trace-gpfs": lambda: {"rename_share": TraceGenerator(
        num_ops=500_000, d_rename_fraction=1e-5).rename_share()},
    "kv-value-size": lambda: {s: value_size_cost(s) for s in SIZES_KV},
    "ablation-fuse": run_pair,
    "ablation-multidms": lambda: {
        "mkdir_iops": {k: mkdir_throughput(k) for k in (1, 2, 4, 8)},
        "cold_stat_rpcs": {k: cold_stat_rpcs(k) for k in (0, 1, 4)}},
    "ablation-lease": lambda: {s: run_lease(s) for s in LEASES},
    "ablation-dms-backend": lambda: {b: run_backend(b) for b in ("btree", "hash")},
    "ablation-replication": lambda: {r: {s: write_latency(r, s) for s in SIZES_REPL}
                                     for r in (1, 2, 3)},
    "readdir": lambda: {
        "locofs-16fms": {n: readdir_latency("locofs-c", 16, n) for n in (100, 1000, 10000)},
        "locofs-4fms": {n: readdir_latency("locofs-c", 4, n) for n in (100, 1000, 10000)},
        "lustre-d1": {n: readdir_latency("lustre-d1", 4, n) for n in (100, 1000, 10000)}},
    "shared-dir": _run_shared_dir,
    # miniature runs: each experiment's most load-bearing property
    "fig01-tiny": partial(_run_fig01, systems=("lustre-d1",), server_counts=(1, 2),
                          items_per_client=8, client_scale=0.1),
    "fig06-tiny": lambda: _rows(fig06_latency.run(systems=("locofs-c", "cephfs"),
                                                  server_counts=(1,), n_items=8)),
    "fig07-tiny": lambda: fig07_latency_ops.run(systems=("locofs-c", "gluster"),
                                                num_servers=2, n_items=8).rows,
    "fig08-tiny": lambda: _rows(fig08_throughput.run(
        ops=("touch",), server_counts=(1,), systems=("locofs-c", "cephfs"),
        items_per_client=8, client_scale=0.1)),
    "fig09-tiny": lambda: fig09_bridging_gap.run(systems=("locofs-c",), server_counts=(1,),
                                                 items_per_client=10, client_scale=0.2).rows,
    "fig10-tiny": lambda: fig10_flattened.run(systems=("locofs-c", "indexfs"), n_items=10).rows,
    "fig11-tiny": lambda: fig11_decoupled.run(systems=("locofs-df", "locofs-cf"), num_servers=2,
                                              items_per_client=8, client_scale=0.2).rows,
    "fig12-tiny": lambda: _rows(fig12_fullsystem.run(systems=("locofs-c",), sizes=(512, 65536),
                                                     num_servers=2, n_files=4)),
    "fig13-tiny": lambda: fig13_depth.run(configs=(("locofs-nc", 2),), depths=(1, 16),
                                          items_per_client=10, client_scale=0.2).rows,
    "fig14-tiny": lambda: fig14_rename.run(group_sizes=(100, 300), base_dirs=1500).rows,
    "fig15-tiny": lambda: fig15_batching.run(batch_sizes=(8,), client_counts=(32,),
                                             num_servers=2, items_per_client=8,
                                             client_scale=0.25).rows,
    "fig18-tiny": _run_fig18_tiny,
}


# -- the table -------------------------------------------------------------------

SERVERS6 = (1, 2, 4, 8, 16)
BASELINES6 = ("Lustre D1", "Lustre D2", "CephFS", "Gluster")
FIG6_SYSTEMS = ("LocoFS-C", "LocoFS-NC", *BASELINES6)
FIG9_SYSTEMS = ("IndexFS", "Lustre D1", "CephFS", "Gluster")
FIG11_OPS = ("chmod", "chown", "access", "truncate")
FIG13_DEPTHS = (1, 2, 4, 8, 16, 32)


def _key(label: str) -> str:
    """A row label as it appears in a row id: ``Lustre D1`` -> ``lustre-d1``."""
    return label.lower().replace(" ", "-")


_fig01 = partial(Claim, "fig01", "Fig. 1")
_fig06 = partial(Claim, "fig06", "Fig. 6")
_fig07 = partial(Claim, "fig07", "Fig. 7")
_fig08 = partial(Claim, "fig08", "Fig. 8")
_fig09 = partial(Claim, "fig09", "Fig. 9")
_fig10 = partial(Claim, "fig10", "Fig. 10")
_net = partial(Claim, "fig10-network", "Fig. 10 (§4.2.4)")
_fig11 = partial(Claim, "fig11", "Fig. 11")
_fig12 = partial(Claim, "fig12", "Fig. 12")
_fig13 = partial(Claim, "fig13", "Fig. 13")
_fig14 = partial(Claim, "fig14", "Fig. 14")
_table3 = partial(Claim, "table3", "Table 3 (§4.2.2)")
_kv = partial(Claim, "kv-value-size", "§2.2.2")
_fuse = partial(Claim, "ablation-fuse", "§3.1, §4.1.2")
_multi = partial(Claim, "ablation-multidms", "§3.1")
_lease = partial(Claim, "ablation-lease", "§3.2.2")
_backend = partial(Claim, "ablation-dms-backend", "§3.4.3")
_repl = partial(Claim, "ablation-replication", "§4.3")
_readdir = partial(Claim, "readdir", "Fig. 7 (readdir)")
_shared = partial(Claim, "shared-dir", "beyond the paper (N-to-1 create)")

CLAIMS: tuple[Claim, ...] = (
    # Fig. 1: every DFS is far below the raw KV line at one server, and scales
    *(c for name in ("Lustre D1", "CephFS", "IndexFS") for c in (
        _fig01(f"gap.{_key(name)}", "every DFS sits far below a raw KV store on one server",
               (name, 1), "(-inf, 0.35)", ("kv",)),
        _fig01(f"scales.{_key(name)}", "DFS metadata throughput grows with servers",
               (name, 32), "(2, inf)", (name, 1)))),
    _fig01("cephfs-widest-gap", "CephFS has the heaviest software path",
           ("CephFS", 1), "(-inf, 1)", ("Lustre D1", 1)),
    _fig01("indexfs-gap", "IndexFS needs many more servers to close the gap",
           ("IndexFS", 1), "(-inf, 0.12)", ("kv",)),

    # Fig. 6: mkdir ≈ one DMS round trip; LocoFS lowest; Gluster's mkdir worst
    *(_fig06(f"mkdir-rtt.{_key(s)}@{k}", "LocoFS mkdir ≈ 1.1× RTT, flat in servers",
             ("mkdir", s, k), "(-inf, 1.6)")
      for s in ("LocoFS-C", "LocoFS-NC") for k in SERVERS6),
    *(_fig06(f"{op}.locofs-c<{_key(o)}@{k}", "LocoFS has the lowest touch and mkdir latency",
             (op, "LocoFS-C", k), "(-inf, 1)", (op, o, k))
      for op in ("touch", "mkdir") for o in BASELINES6 for k in SERVERS6),
    *(_fig06(f"mkdir.gluster>={_key(s)}@{k}", "Gluster's directory synchronization makes "
             "its mkdir the slowest", ("mkdir", "Gluster", k), "[1, inf)", ("mkdir", s, k))
      for s in FIG6_SYSTEMS if s != "Gluster" for k in SERVERS6),
    _fig06("mkdir.gluster-grows", "Gluster's mkdir worsens as bricks are added",
           ("mkdir", "Gluster", 16), "(1, inf)", ("mkdir", "Gluster", 1)),
    _fig06("touch.locofs-c-grows", "touch latency rises with servers (connection churn, "
           "§4.2.1 obs. 2)", ("touch", "LocoFS-C", 16), "(1, inf)", ("touch", "LocoFS-C", 1)),
    _fig06("touch.nc-over-c", "LocoFS-C's touch stays well below LocoFS-NC's",
           ("touch", "LocoFS-NC", 1), "(1.8, inf)", ("touch", "LocoFS-C", 1)),

    # Fig. 7 (16 servers, normalized to LocoFS-C)
    *(_fig07(f"{op}.{_key(o)}>locofs-c", "direct file locating: LocoFS beats Lustre and "
             "Gluster on rm / dir-stat / file-stat", (o, op), "(1, inf)", ("LocoFS-C", op))
      for op in ("rm", "dir-stat", "file-stat") for o in ("Lustre D1", "Lustre D2", "Gluster")),
    _fig07("file-stat.cephfs<locofs-c", "CephFS's client cache gives it the lowest file-stat "
           "(obs. 3)", ("CephFS", "file-stat"), "(-inf, 1)", ("LocoFS-C", "file-stat")),
    *(c for op in ("readdir", "rmdir") for c in (
        _fig07(f"{op}.not-far-below", "readdir / rmdir consult every FMS: LocoFS is "
               "comparable, not better", ("LocoFS-C", op), "(0.3, inf)",
               ("min(Lustre D1, Gluster)", op)),
        _fig07(f"{op}.not-far-above", "readdir / rmdir consult every FMS: LocoFS is "
               "comparable, not better", ("LocoFS-C", op), "(-inf, 2.5)",
               ("max(Lustre D1, Gluster)", op)))),

    # Fig. 8: throughput at 1 / 4 / 16 servers
    *(_fig08(f"touch.one-server-over-{_key(o)}", f"one-server create: {x} {o}",
             ("touch", "LocoFS-C", 1), bound, ("touch", o, 1))
      for o, x, bound in (("CephFS", "67×", "(20, inf)"), ("Gluster", "23×", "(5, inf)"),
                          ("Lustre D1", "8×", "(3, inf)"))),
    _fig08("touch.cache-at-16", "the client cache matters at scale",
           ("touch", "LocoFS-C", 16), "(1.5, inf)", ("touch", "LocoFS-NC", 16)),
    _fig08("touch.scales", "touch scales with servers",
           ("touch", "LocoFS-C", 16), "(1.5, inf)", ("touch", "LocoFS-C", 1)),
    _fig08("mkdir.scales-below-lustre", "the single DMS scales mkdir worse than Lustre's "
           "parallel MDSes (obs. 3)", ("mkdir 16/1", "LocoFS-C"), "(-inf, 0.75)",
           ("mkdir 16/1", "Lustre D1")),
    *(_fig08(f"mkdir.over-{_key(o)}@16", "the single DMS still beats CephFS and Gluster",
             ("mkdir", "LocoFS-C", 16), "(1, inf)", ("mkdir", o, 16))
      for o in ("CephFS", "Gluster")),
    *(_fig08(f"rm.over-{_key(o)}@{k}", "LocoFS rm beats every baseline at every scale",
             ("rm", "LocoFS-C", k), "(1, inf)", ("rm", o, k))
      for o in ("Lustre D1", "CephFS", "Gluster") for k in (1, 4, 16)),
    _fig08("file-stat.cephfs-over-locofs@16", "CephFS's client cache beats LocoFS on stat "
           "(obs. 4)", ("file-stat", "CephFS", 16), "(1, inf)", ("file-stat", "LocoFS-C", 16)),
    *(_fig08(f"file-stat.over-{_key(o)}@16", "LocoFS stat beats Lustre and Gluster",
             ("file-stat", "LocoFS-C", 16), "(1, inf)", ("file-stat", o, 16))
      for o in ("Lustre D1", "Gluster")),

    # Fig. 9: % of a raw single-node KV store
    _fig09("one-server", "≈38 % of a raw single-node KV store", ("LocoFS-C", 1), "[20, 60]"),
    _fig09("eight-servers", "≈93–100 % with 8–16 servers", ("LocoFS-C", 8), "[70, inf)"),
    _fig09("sixteen-servers", "≈93–100 % with 8–16 servers", ("LocoFS-C", 16), "[85, inf)"),
    _fig09("indexfs@8", "IndexFS ≈18 % at 8 servers", ("IndexFS", 8), "(-inf, 0.5)",
           ("LocoFS-C", 8)),
    *(_fig09(f"locofs-c>={_key(o)}@{k}", "LocoFS is highest at every width",
             ("LocoFS-C", k), "[1, inf)", (o, k))
      for o in FIG9_SYSTEMS for k in SERVERS6),

    # Fig. 10: co-located (no network)
    *(_fig10(f"{op}.locofs-c<={_key(o)}", "LocoFS has the lowest latency of all four ops",
             ("LocoFS-C", op), "(-inf, 1]", (o, op))
      for op in ("mkdir", "touch", "rm", "rmdir") for o in FIG9_SYSTEMS),
    *(_fig10(f"{op}.indexfs<{_key(o)}", "KV-backed IndexFS beats CephFS and Gluster",
             ("IndexFS", op), "(-inf, 1)", (o, op))
      for op in ("mkdir", "touch") for o in ("CephFS", "Gluster")),
    _fig10("touch.cephfs-software-gap", "CephFS 27× above LocoFS without the network",
           ("CephFS", "touch"), "(8, inf)", ("LocoFS-C", "touch")),
    _fig10("touch.gluster-software-gap", "Gluster 25× above LocoFS without the network",
           ("Gluster", "touch"), "(4, inf)", ("LocoFS-C", "touch")),
    *(_net(f"locofs-c-over-{o}", "a faster network helps LocoFS far more than the "
           "software-bound systems", ("locofs-c",), "(3, inf)", (o,))
      for o in ("cephfs", "gluster")),

    # Fig. 11: decoupled file metadata (16 servers, full Table-3 pool)
    *(_fig11(f"{op}.df>=cf", "decoupling improves every file-metadata op",
             ("LocoFS-DF", op), "[1, inf)", ("LocoFS-CF", op)) for op in FIG11_OPS),
    *(_fig11(f"{op}.cf>{_key(o)}", "even coupled LocoFS beats the traditional baselines",
             ("LocoFS-CF", op), "(1, inf)", (o, op))
      for op in FIG11_OPS for o in ("Lustre D1", "CephFS", "Gluster")),
    _fig11("tangible-gain", "decoupling gives a tangible gain on at least one op",
           ("max DF/CF",), "(1.15, inf)"),

    # Fig. 12: metadata dominates small I/O, the data path large I/O
    *(_fig12(f"{io}.512.{_key(o)}-above", "at 512 B LocoFS writes in 1/2–1/5 and reads "
             "in 1/3–1/50 of the others' time", (io, o, 512), "(1.5, inf)",
             (io, "LocoFS-C", 512))
      for io in ("write", "read") for o in ("Lustre D1", "CephFS", "Gluster")),
    *(_fig12(f"{io}.{size}.{_key(o)}-converges", "crossover at ≥ 1 MB writes and ≥ 256 KB "
             "reads", (io, o, size), "(-inf, 1.3)", (io, "LocoFS-C", size))
      for io, size in (("write", 4194304), ("read", 1048576))
      for o in ("Lustre D1", "Gluster")),
    *(_fig12(f"{io}.grows", "latency grows with size once transfers dominate",
             (io, "LocoFS-C", 4194304), "(1, inf)", (io, "LocoFS-C", 32768))
      for io in ("write", "read")),

    # Fig. 13: depth sensitivity
    *(c for k in (2, 4) for c in (
        _fig13(f"nc-collapses@{k}", "without the cache deep trees collapse throughput "
               "(120K → 50K at 4 servers)", (f"LocoFS-NC ({k} srv)", 32), "(-inf, 0.7)",
               (f"LocoFS-NC ({k} srv)", 1)),
        _fig13(f"c-holds@{k}", "the client cache absorbs most of the loss",
               (f"LocoFS-C ({k} srv)", 32), "(0.85, inf)", (f"LocoFS-C ({k} srv)", 1)),
        *(_fig13(f"c>nc@{k}.depth{d}", "the cached config dominates everywhere",
                 (f"LocoFS-C ({k} srv)", d), "(1, inf)", (f"LocoFS-NC ({k} srv)", d))
          for d in FIG13_DEPTHS))),

    # Fig. 14: d-rename, 500 → 5000 dirs moved of a 15000-dir namespace
    *(c for dev in ("hdd", "ssd") for c in (
        _fig14(f"{dev}.btree<hash", "a B+-tree prefix move beats the hash full scan",
               (f"btree-{dev}", 500), "(-inf, 1)", (f"hash-{dev}", 500)),
        _fig14(f"{dev}.btree-linear", "B+-tree cost is roughly linear in the dirs moved",
               (f"btree-{dev}", 5000), "(2, 25)", (f"btree-{dev}", 500)),
        _fig14(f"{dev}.hash-floor", "hash cost has a floor set by the namespace size",
               (f"hash-{dev}", 5000), "(-inf, 7)", (f"hash-{dev}", 500)))),
    _fig14("btree.hdd-near-ssd", "no big difference between HDD and SSD",
           ("btree-hdd", 5000), "(-inf, 6)", ("btree-ssd", 5000)),
    _fig14("hash.hdd-near-ssd", "no big difference between HDD and SSD",
           ("hash-hdd", 5000), "(-inf, 3)", ("hash-ssd", 5000)),

    # Table 1: every row matches the instrumented servers
    *(Claim("table1", "Table 1", f"{op}.matches", f"the paper's Table 1 row for {op}",
            (op, "matches paper"), "[1, 1]") for op in table1_access_matrix.PAPER_MATRIX),

    # Table 3 procedure: 10 → 100 clients at 4 servers
    _table3("locofs-c-keeps-gaining", "LocoFS gains deep into the sweep",
            ("LocoFS-C", 100), "(3, inf)", ("LocoFS-C", 10)),
    *(_table3(f"{_key(s)}.no-collapse", "closed-loop queueing: no collapse after the knee",
              (s, 100), "(0.75, inf)", (s, "peak"))
      for s in ("LocoFS-C", "Lustre D1", "CephFS")),
    _table3("cephfs-knee-first", "CephFS saturates with fewer clients (20 vs 70 at 4 servers)",
            ("knee", "CephFS"), "(-inf, 1]", ("knee", "LocoFS-C")),
    _table3("locofs-c-knee", "70 clients at 4 servers", ("knee", "LocoFS-C"), "[17.5, 140]"),

    # §3.4.1: renames are vanishingly rare in HPC traces
    Claim("trace", "§3.4.1", "no-renames", "TaihuLight: no renames observed",
          ("rename_share",), "[0, 0]"),
    Claim("trace", "§3.4.1", "metadata-dominates", "metadata ops dominate the mix "
          "(refs [24, 39])", ("metadata_share",), "(0.5, inf)"),
    Claim("trace-gpfs", "§3.4.1", "rare-renames", "BSC GPFS: ~1e-7 d-renames",
          ("rename_share",), "(0, 0.001)"),

    # §2.2.2: KV cost rises with value size; (de)serialization amplifies it
    *(_kv(f"raw-monotone.{a}-{b}", "KV performance degrades as values grow",
          (b, "raw"), "[1, inf)", (a, "raw")) for a, b in zip(SIZES_KV, SIZES_KV[1:])),
    _kv("serialization-dominates", "(de)serialization dominates at metadata-record sizes",
        (256, "serialized"), "(2, inf)", (256, "raw")),
    _kv("decoupled-cheaper", "a 20 B access part is far cheaper than a coupled ~200 B inode",
        (32, "raw"), "(-inf, 0.5)", (256, "serialized")),

    # ablations beyond the paper's figures
    _fuse("penalty", "FUSE overhead is not negligible (Vangoor et al.)",
          ("fuse",), "(1.05, 3)", ("native",)),
    _multi("mkdir-scales@4", None, ("mkdir_iops", 4), "(1.5, inf)", ("mkdir_iops", 1)),
    _multi("mkdir-scales@8", None, ("mkdir_iops", 8), "(1, inf)", ("mkdir_iops", 2)),
    _multi("cold-stat@single", None, ("cold_stat_rpcs", 0), "[1, 1]"),
    _multi("cold-stat@1", None, ("cold_stat_rpcs", 1), "[1, inf)"),
    _multi("cold-stat-per-level@4", None, ("cold_stat_rpcs", 4), "[9, 9]"),
    *(_lease(f"dms-monotone.{a}-{b}", None, (a, "dms_rpcs"), "[1, inf)", (b, "dms_rpcs"))
      for a, b in zip(LEASES, LEASES[1:])),
    _lease("0.5s-expires", None, (0.5, "dms_rpcs"), "[1, inf)"),
    _lease("30s-hits", "the paper's 30 s lease", (30.0, "hit_rate"), "(0.99, inf)"),
    _lease("short-over-long", None, (0.01, "dms_rpcs"), "(10, inf)", (30.0, "dms_rpcs")),
    *(_backend(f"{op}.parity", "the B+-tree costs nothing day to day",
               ("btree", op), "(0.85, 1.15)", ("hash", op))
      for op in ("mkdir", "dir-stat", "rmdir")),
    _repl("512.nearly-free", None, (3, 512), "(-inf, 1.5)", (1, 512)),
    _repl("1m.r3", None, (3, 1048576), "(2, inf)", (1, 1048576)),
    _repl("1m.r2", None, (2, 1048576), "(1.5, inf)", (1, 1048576)),
    *(_repl(f"{s}.monotone.r{r}", None, (r, s), "[1, inf)", (r - 1, s))
      for s in SIZES_REPL for r in (2, 3)),
    *(_readdir(f"{s}.per-entry", "readdir of a 10 k-entry directory",
               (s, 10000), "(3, inf)", (s, 100))
      for s in ("locofs-16fms", "locofs-4fms", "lustre-d1")),
    _readdir("more-fms-faster", None, ("locofs-16fms", 10000), "(-inf, 1)",
             ("locofs-4fms", 10000)),
    _readdir("same-decade", None, ("locofs-4fms", 10000), "(-inf, 10)",
             ("lustre-d1", 10000)),

    # N clients creating in one directory, 1 → 8 servers
    _shared("locofs-c.scales", None, ("iops", "locofs-c", 8), "(2, inf)",
            ("iops", "locofs-c", 1)),
    *(_shared(f"{s}.pinned", None, ("iops", s, 8), "(-inf, 1.4)", ("iops", s, 1))
      for s in ("cephfs", "lustre-d1")),
    _shared("lustre-d2.scales", None, ("iops", "lustre-d2", 8), "(1.6, inf)",
            ("iops", "lustre-d2", 1)),
    *(_shared(f"locofs-c>={s}@{k}", None, ("iops", "locofs-c", k), "[1, inf)", ("iops", s, k))
      for s in ("cephfs", "lustre-d1", "lustre-d2") for k in (1, 8)),
    # the regime: server-bound at both widths, not client-bound
    *(_shared(f"{s}.busiest@{k}", None, ("busiest", s, k), bound)
      for s in SHARED_SYSTEMS for k, bound in ((1, "[0.9, inf)"), (8, "[0.5, inf)"))),

    # miniature runs
    Claim("fig01-tiny", "Fig. 1", "lustre-d1.runs", None, ("Lustre D1", 2), "(0, inf)"),
    Claim("fig01-tiny", "Fig. 1", "kv-above-lustre-d1", "every DFS sits below a raw KV store",
          ("kv",), "(1, inf)", ("Lustre D1", 1)),
    Claim("fig06-tiny", "Fig. 6", "touch.locofs-c<cephfs", "LocoFS has the lowest touch latency",
          ("touch", "LocoFS-C", 1), "(-inf, 1)", ("touch", "CephFS", 1)),
    Claim("fig07-tiny", "Fig. 7", "rm.locofs-c-is-the-unit", None, ("LocoFS-C", "rm"),
          "[0.999999, 1.000001]"),
    Claim("fig07-tiny", "Fig. 7", "rm.gluster-above", "LocoFS beats Gluster on rm",
          ("Gluster", "rm"), "(1, inf)"),
    Claim("fig08-tiny", "Fig. 8", "touch.locofs-c>cephfs", "one-server create: 67× CephFS",
          ("touch", "LocoFS-C", 1), "(1, inf)", ("touch", "CephFS", 1)),
    Claim("fig09-tiny", "Fig. 9", "percent-of-kv", None, ("LocoFS-C", 1), "(0, 120]"),
    Claim("fig10-tiny", "Fig. 10", "touch.locofs-c<indexfs", "LocoFS has the lowest latency",
          ("LocoFS-C", "touch"), "(-inf, 1)", ("IndexFS", "touch")),
    *(Claim("fig11-tiny", "Fig. 11", f"{op}.{_key(s)}.runs", None, (s, op), "(0, inf)")
      for s in ("LocoFS-DF", "LocoFS-CF") for op in ("chmod", "truncate")),
    Claim("fig12-tiny", "Fig. 12", "write.grows", "bigger I/O costs more wire time",
          ("write", "LocoFS-C", 65536), "(1, inf)", ("write", "LocoFS-C", 512)),
    Claim("fig13-tiny", "Fig. 13", "nc.depth-hurts", "without the cache deep trees cost "
          "throughput", ("LocoFS-NC (2 srv)", 16), "(-inf, 1)", ("LocoFS-NC (2 srv)", 1)),
    Claim("fig14-tiny", "Fig. 14", "btree.grows", "B+-tree cost grows with the dirs moved",
          ("btree-ssd", 300), "(1, inf)", ("btree-ssd", 100)),
    Claim("fig15-tiny", "beyond the paper (write-behind)", "batching-wins", None,
          ("LocoFS-B (b=8)", 32), "(1, inf)", ("LocoFS-C", 32)),
    Claim("fig18-tiny", "beyond the paper (open loop)", "low-load-goodput", None,
          ("goodput", "LocoFS-C", 20_000.0), "(15000, inf)"),
    Claim("fig18-tiny", "beyond the paper (open loop)", "nc-knee-first", None,
          ("knee", "locofs-nc"), "(-inf, 1)", ("knee", "locofs-c")),
)
