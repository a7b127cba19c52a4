"""Tests for the benchmark harness: workloads, registry, runners, report."""

import pytest

from repro.baselines import (
    CephFSSystem,
    GlusterSystem,
    IndexFSSystem,
    LustreSystem,
    RawKVSystem,
)
from repro.common.stats import LatencyRecorder
from repro.common.config import ClusterConfig, DirectoryConfig
from repro.core.fs import LocoFS
from repro.harness import (
    LABELS,
    SYSTEM_NAMES,
    TABLE3_CLIENTS,
    TraceGenerator,
    Workload,
    clients_for,
    format_table,
    make_system,
    normalize,
    run_latency,
    run_throughput,
)
from repro.harness.registry import make_system as registry_make
from repro.sim.costmodel import CostModel


class TestWorkloads:
    def test_table3_matches_paper(self):
        # spot-check Table 3 verbatim values
        assert TABLE3_CLIENTS["locofs-nc"][1] == 30
        assert TABLE3_CLIENTS["locofs-c"][8] == 130
        assert TABLE3_CLIENTS["cephfs"][16] == 110
        assert TABLE3_CLIENTS["lustre-d1"][16] == 192

    def test_clients_for_scaling(self):
        assert clients_for("locofs-c", 1, scale=1.0) == 30
        assert clients_for("locofs-c", 1, scale=0.5) == 15
        assert clients_for("locofs-c", 1, scale=0.001) == 2  # floor

    def test_clients_for_interpolates_unknown_counts(self):
        assert clients_for("locofs-c", 32) > clients_for("locofs-c", 16) / 2

    def test_clients_for_unknown_system_falls_back(self):
        assert clients_for("rawkv", 1) == clients_for("lustre-d1", 1)
        assert clients_for("locofs-cf", 4) == clients_for("locofs-c", 4)

    def test_workload_paths(self):
        wl = Workload(depth=3)
        assert wl.client_root(7) == "/c0007"
        assert wl.work_dir(7) == "/c0007/d0/d1"
        assert wl.dir_chain(7) == ["/c0007", "/c0007/d0", "/c0007/d0/d1"]
        assert wl.file_path(7, 2) == "/c0007/d0/d1/f000002"

    def test_depth_one_has_flat_workdir(self):
        wl = Workload(depth=1)
        assert wl.work_dir(0) == "/c0000"

    @pytest.mark.parametrize("depth", [1, 3])
    def test_op_call_builders_spell_the_workload_paths(self, depth):
        # the drivers' builders format paths inline from the resolved work
        # dir; they must name exactly what file_path/dir_path name
        from repro.harness.workloads import _OP_CALLS

        wl = Workload(depth=depth)
        for cid in (0, 7, 123):
            wd = wl.work_dir(cid)
            for n in (0, 5, 999_999):
                for op, build in _OP_CALLS.items():
                    path = build(wl, wd, n)[1]
                    kind = "dir" if op in ("mkdir", "dir-stat", "rmdir") else "file"
                    want = (wl.dir_path if kind == "dir" else wl.file_path)(cid, n)
                    assert path == want, (op, cid, n)


def _locofs_over(**directory):
    return lambda **kw: LocoFS(
        ClusterConfig(directory=DirectoryConfig(**directory)), **kw)


#: every deployment constructor: the one LocoFS builder over its three
#: directory shapes, and the baselines
_CONSTRUCTORS = {
    "LocoFS": LocoFS,
    "LocoFS-partitioned": _locofs_over(partitions=2),
    "LocoFS-replicated": _locofs_over(partitions=2, replication=3),
    **{cls.__name__: cls for cls in (IndexFSSystem, CephFSSystem, LustreSystem,
                                     GlusterSystem, RawKVSystem)},
}


class TestRegistry:
    @pytest.mark.parametrize("name", SYSTEM_NAMES)
    def test_every_system_builds(self, name):
        sys_ = registry_make(name, num_servers=2)
        assert sys_ is not None
        close = getattr(sys_, "close", None)
        if close:
            close()

    def test_labels_cover_all_systems(self):
        assert set(LABELS) == set(SYSTEM_NAMES)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_system("zfs", 1)

    @pytest.mark.parametrize("build", _CONSTRUCTORS.values(), ids=_CONSTRUCTORS)
    @pytest.mark.parametrize("kind", ["evnt", "Direct"])
    def test_unknown_engine_kind_rejected(self, build, kind):
        # a typo must not silently select an engine
        with pytest.raises(ValueError, match="unknown engine kind"):
            build(engine_kind=kind)

    def test_locofs_variants_differ(self):
        c = registry_make("locofs-c", 1)
        nc = registry_make("locofs-nc", 1)
        cf = registry_make("locofs-cf", 1)
        assert c.config.cache.enabled and not nc.config.cache.enabled
        assert c.config.decoupled_file_metadata and not cf.config.decoupled_file_metadata


class TestLatencyRunner:
    def test_records_all_requested_ops(self):
        rec = run_latency("locofs-c", 1, n_items=10)
        for op in ("mkdir", "touch", "dir-stat", "file-stat", "readdir", "rm", "rmdir"):
            assert rec.count(op) >= 1, op

    def test_sample_counts_match_items(self):
        rec = run_latency("locofs-c", 2, n_items=15, ops=("touch", "rm"))
        assert rec.count("touch") == 15
        assert rec.count("rm") == 15

    def test_file_meta_ops_supported(self):
        rec = run_latency("locofs-c", 2, n_items=8,
                          ops=("chmod", "chown", "access", "truncate"))
        for op in ("chmod", "chown", "access", "truncate"):
            assert rec.count(op) == 8

    def test_latency_positive_and_at_least_rtt_for_touch(self):
        cost = CostModel()
        rec = run_latency("locofs-nc", 1, n_items=10, cost=cost, ops=("touch",))
        assert rec.summary("touch").mean > cost.rtt_us  # at least one round trip

    def test_works_for_baselines(self):
        rec = run_latency("cephfs", 2, n_items=8, ops=("touch", "mkdir"))
        assert rec.summary("touch").mean > 0

    def test_depth_increases_nocache_latency(self):
        shallow = run_latency("locofs-nc", 1, n_items=10, depth=1, ops=("touch",))
        deep = run_latency("locofs-nc", 1, n_items=10, depth=24, ops=("touch",))
        assert deep.summary("touch").mean > shallow.summary("touch").mean


class TestThroughputRunner:
    def test_basic_result_fields(self):
        r = run_throughput("locofs-c", 1, op="touch", num_clients=5, items_per_client=10)
        assert r.total_ops == 50
        assert r.iops > 0
        assert r.elapsed_us > 0
        assert r.num_clients == 5
        assert "dms" in r.server_utilization

    def test_more_servers_more_touch_throughput(self):
        # enough clients that a single FMS saturates
        one = run_throughput("locofs-c", 1, op="touch", num_clients=40, items_per_client=15)
        four = run_throughput("locofs-c", 4, op="touch", num_clients=40, items_per_client=15)
        assert one.server_utilization["fms0"] > 0.8
        assert four.iops > one.iops

    def test_cache_beats_nocache(self):
        c = run_throughput("locofs-c", 4, op="touch", num_clients=20, items_per_client=15)
        nc = run_throughput("locofs-nc", 4, op="touch", num_clients=20, items_per_client=15)
        assert c.iops > nc.iops

    def test_destructive_ops_have_setup(self):
        r = run_throughput("locofs-c", 2, op="rm", num_clients=4, items_per_client=10)
        assert r.total_ops == 40

    def test_rawkv_put_and_get(self):
        put = run_throughput("rawkv", 1, op="put", num_clients=10, items_per_client=20)
        get = run_throughput("rawkv", 1, op="get", num_clients=10, items_per_client=20)
        assert put.iops > 0 and get.iops > 0

    def test_throughput_deterministic(self):
        a = run_throughput("locofs-c", 2, op="touch", num_clients=8, items_per_client=10)
        b = run_throughput("locofs-c", 2, op="touch", num_clients=8, items_per_client=10)
        assert a.iops == pytest.approx(b.iops)

    @pytest.mark.parametrize("name", ["cephfs", "gluster", "lustre-d1", "lustre-d2", "indexfs"])
    def test_baselines_run_all_ops(self, name):
        for op in ("touch", "mkdir", "file-stat", "rm"):
            r = run_throughput(name, 2, op=op, num_clients=4, items_per_client=6)
            assert r.total_ops == 24, (name, op)


class TestReport:
    def test_format_table_renders_all_cells(self):
        rows = {"A": {1: 10.0, 2: 20.0}, "B": {1: 5.0}}
        out = format_table("t", "sys", [1, 2], rows)
        assert "A" in out and "B" in out
        assert "10" in out and "—" in out  # missing cell renders as em dash

    def test_normalize(self):
        rows = {"base": {1: 10.0}, "x": {1: 30.0}}
        norm = normalize(rows, "base")
        assert norm["x"][1] == pytest.approx(3.0)
        assert norm["base"][1] == pytest.approx(1.0)


class TestTrace:
    def test_default_has_zero_renames(self):
        gen = TraceGenerator(num_ops=20000)
        assert gen.rename_share() == 0.0

    def test_rename_fraction_respected(self):
        gen = TraceGenerator(num_ops=50000, rename_fraction=0.01)
        share = gen.rename_share()
        assert 0.005 < share < 0.02

    def test_mix_sums_to_metadata_heavy(self):
        hist = TraceGenerator(num_ops=30000).op_histogram()
        assert hist["stat"] > hist["write"]

    def test_paths_well_formed(self):
        gen = TraceGenerator(num_ops=500)
        from repro.common import pathutil

        for op in gen.generate():
            assert pathutil.normalize(op.path) == op.path
