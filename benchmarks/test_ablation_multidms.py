"""Ablation: single DMS (the paper's design) vs a hash-partitioned DMS.

Quantifies the trade-off §3.1 argues for: partitioning the directory
service makes mkdir throughput scale, but the ancestor ACL walk moves to
the client — one round trip per uncached path level — and d-rename becomes
a cross-shard shuffle.
"""

from conftest import once

from repro.common.config import ClusterConfig, DirectoryConfig
from repro.core.fs import LocoFS
from repro.sim.rpc import LocalCharge


def partitioned(n_shards: int, **kw) -> LocoFS:
    return LocoFS(ClusterConfig(num_metadata_servers=1,
                                directory=DirectoryConfig(partitions=n_shards)), **kw)


def mkdir_throughput(n_shards: int, clients: int = 40, items: int = 20) -> float:
    fs = partitioned(n_shards, engine_kind="event")
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
    fs = partitioned(n_shards)
    warm = fs.client()
    path = ""
    for i in range(depth):
        path += f"/d{i}"
        warm.mkdir(path)
    cold = fs.client()
    before = sum(fs.cluster[n].requests_served for n in fs.dms_names)
    cold.stat_dir(path)
    return sum(fs.cluster[n].requests_served for n in fs.dms_names) - before


def test_ablation_multidms(benchmark, show):
    def run():
        return {
            "mkdir_iops": {k: mkdir_throughput(k) for k in (1, 2, 4, 8)},
            "cold_stat_rpcs": {k: cold_stat_rpcs(k) for k in (1, 4)},
        }

    res = once(benchmark, run)
    tp = res["mkdir_iops"]
    show("== Ablation: partitioned directory service (beyond the paper)\n"
         + "  mkdir IOPS by #DMS shards: "
         + ", ".join(f"{k}: {v:,.0f}" for k, v in tp.items())
         + "\n  cold stat of a depth-8 path, DMS RPCs: "
         + ", ".join(f"{k} shard(s): {v}" for k, v in res["cold_stat_rpcs"].items()))
    # the win: mkdir scales with shards
    assert tp[4] > 1.5 * tp[1]
    assert tp[8] > tp[2]
    # the cost: the one-RPC ancestor-check property is gone
    assert res["cold_stat_rpcs"][1] >= 1
    assert res["cold_stat_rpcs"][4] == 9  # one per level (8 dirs + root)
