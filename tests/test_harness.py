"""Tests for the benchmark harness: workloads, registry, runners, report."""

import cProfile
import pstats

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
    ZipfPicker,
    clients_for,
    format_table,
    make_system,
    normalize,
    run_latency,
    run_mixed_throughput,
    run_throughput,
)
from repro.harness import mdtest
from repro.harness.registry import make_system as registry_make
from repro.obs import Tracer
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
                for op, (_, build) in _OP_CALLS.items():
                    path = build(wl, wd, n)[0]
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

    @pytest.mark.usefixtures("quiet_gc")
    def test_measured_op_exact_call_count(self, monkeypatch):
        """One measured op — harness loop, client, engine and both servers
        — under cProfile, from the record of the second sample to that of
        the third: CPython 3.11.7 counts 74 for a ``locofs-nc`` file-stat,
        the profiler's ``disable`` included: one shared ``LocalCharge``,
        one ``engine.run`` and one ``record`` per op, the directory resolved
        inline and one ``_serve`` frame per request."""
        prof = cProfile.Profile()

        class OneOp(LatencyRecorder):
            seen = 0

            def record(self, op, latency_us):
                super().record(op, latency_us)
                OneOp.seen += 1
                if OneOp.seen == 2:
                    prof.enable()
                elif OneOp.seen == 3:
                    prof.disable()

        monkeypatch.setattr(mdtest, "LatencyRecorder", OneOp)
        run_latency("locofs-nc", 4, n_items=4, ops=("file-stat",))
        assert OneOp.seen == 4
        assert pstats.Stats(prof).total_calls <= 74

    def test_zipf_phases_visit_the_picker_draws_in_order(self):
        """Each skewed phase draws its targets before it runs; across
        phases they are the picker's stream in order, one op per draw."""
        tracer = Tracer()
        run_latency("locofs-c", 2, n_items=12, ops=("file-stat", "chmod"),
                    zipf_s=1.1, zipf_seed=3, tracer=tracer)
        visited = [s.args["path"] for s in sorted(tracer.spans, key=lambda s: s.start_us)
                   if s.name in ("client.stat_file", "client.chmod")]
        picker = ZipfPicker(12, 1.1, seed=3)
        assert visited == [f"/c0000/f{picker.pick():06d}" for _ in range(24)]
        assert len(set(visited)) < 12  # skewed: the hot items repeat


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

    def test_utilization_leaves_the_setup_wave_out(self):
        """The set-up wave creates the 240 files the measured stats read.
        Its busy time used to count against the measured wave: fms0 read
        0.332 where the stats alone keep it 0.087 busy, and the DMS, which
        no stat reaches, 0.020."""
        r = run_throughput("locofs-c", 2, op="file-stat", num_clients=8,
                           items_per_client=30)
        assert r.server_utilization["fms0"] == 0.08701641077072582
        assert r.server_utilization["dms"] == 0.0  # stats never reach it
        busiest = max(r.server_utilization, key=r.server_utilization.get)
        assert (r.busiest_server, r.busiest_util) == (
            busiest, r.server_utilization[busiest])

    @pytest.mark.parametrize("name", ["cephfs", "gluster", "lustre-d1", "lustre-d2", "indexfs"])
    def test_baselines_run_all_ops(self, name):
        for op in ("touch", "mkdir", "file-stat", "rm"):
            r = run_throughput(name, 2, op=op, num_clients=4, items_per_client=6)
            assert r.total_ops == 24, (name, op)



class TestOpResolvedOnce:
    """Every harness loop resolves the callable of each of its ops once:
    ``op_function`` is called once per client and op (once per phase in
    ``run_latency``), and ``op_raw``, a per-op lookup, is never called."""

    @pytest.fixture
    def spy(self, monkeypatch):
        from collections import Counter

        from repro.fsbase import FSClientBase

        seen = {"op_raw": 0, "op_function": Counter()}
        op_raw, op_function = FSClientBase.op_raw, FSClientBase.op_function

        def spy_raw(client, op, *args, **kwargs):
            seen["op_raw"] += 1
            return op_raw(client, op, *args, **kwargs)

        def spy_function(client, op):
            seen["op_function"][(id(client), op)] += 1
            return op_function(client, op)

        monkeypatch.setattr(FSClientBase, "op_raw", spy_raw)
        monkeypatch.setattr(FSClientBase, "op_function", spy_function)
        return seen

    @staticmethod
    def _per_op(resolved) -> dict:
        """op -> how many clients resolved it, after checking that no
        client resolved an op twice."""
        assert set(resolved.values()) == {1}, resolved
        out: dict = {}
        for _, op in resolved:
            out[op] = out.get(op, 0) + 1
        return out

    def test_bare_throughput(self, spy):
        r = run_throughput("locofs-c", 2, op="touch", num_clients=3,
                           items_per_client=5)
        assert r.total_ops == 15
        assert spy["op_raw"] == 0
        # set-up: each client's working directory; measured: its creates
        assert self._per_op(spy["op_function"]) == {"mkdir": 3, "create": 3}

    def test_telemetry_attached_throughput(self, spy):
        from repro.obs import TelemetrySink

        r = run_throughput("locofs-c", 2, op="touch", num_clients=3,
                           items_per_client=5, telemetry=TelemetrySink())
        assert r.total_ops == 15
        assert spy["op_raw"] == 0
        # the set-up wave goes through op_generator's bracket; the measured
        # wave hoists it and resolves its op once
        assert self._per_op(spy["op_function"]) == {"create": 3}

    def test_two_phase_latency(self, spy):
        rec = run_latency("locofs-c", 2, n_items=4, ops=("touch", "file-stat"))
        assert rec.count("touch") == rec.count("file-stat") == 4
        assert spy["op_raw"] == 0
        assert self._per_op(spy["op_function"]) == {"create": 1, "stat_file": 1}

    def test_mixed_throughput_setup_wave(self, spy, monkeypatch):
        from repro.harness import runner

        at_measured = {}
        measured_wave = runner.run_measured_wave

        def snapshot(engine, gens):
            at_measured.update(op_raw=spy["op_raw"],
                               op_function=dict(spy["op_function"]))
            return measured_wave(engine, gens)

        monkeypatch.setattr(runner, "run_measured_wave", snapshot)
        run_mixed_throughput("locofs-c", 2, num_clients=3, items_per_client=5,
                             pool=4)
        assert at_measured["op_raw"] == 0
        assert self._per_op(at_measured["op_function"]) == {"mkdir": 3, "create": 3}


class TestMixedThroughputBottleneck:
    """``MixedThroughputResult`` names the measured wave's busiest server
    and its busy fraction, from each node's ``busy_us`` change over the
    wave (the set-up wave's work left out).  Virtual time is exact, so
    both are pinned."""

    @pytest.mark.parametrize("system, busiest, util", [
        ("locofs-a", "cache0", 0.16795592894057584),
        ("locofs-c", "fms3", 0.11460298885515484),
    ], ids=["locofs-a", "locofs-c"])
    def test_names_the_busiest_server(self, system, busiest, util):
        r = run_mixed_throughput(
            system, 4, mix={"create": 0.3, "chmod": 0.2, "stat": 0.4, "open": 0.1},
            num_clients=8, items_per_client=40, pool=10, zipf_s=1.0, seed=1)
        assert (r.busiest_server, r.busiest_util) == (busiest, util)


class TestBenchInterface:
    """The harness names the repo benchmark patches at call time: a
    ``make_system`` that takes exactly these arguments, the recorder class
    of ``run_latency``, and two ``sim.run`` waves per event deployment."""

    @staticmethod
    def _tap(module, monkeypatch, events):
        make = module.make_system

        def make_system(name, num_servers=1, cost=None, engine_kind="direct"):
            system = make(name, num_servers, cost=cost, engine_kind=engine_kind)
            events.append(("build", name))
            sim = getattr(system.engine, "sim", None)
            if sim is not None:
                drain = sim.run

                def run(*args, **kwargs):
                    events.append(("wave", name))
                    return drain(*args, **kwargs)

                sim.run = run
            return system

        monkeypatch.setattr(module, "make_system", make_system)

    def test_throughput_runners_build_once_and_run_two_waves(self, monkeypatch):
        from repro.harness import runner

        events = []
        self._tap(runner, monkeypatch, events)
        runner.run_throughput("locofs-c", 2, op="touch", num_clients=3,
                              items_per_client=4)
        runner.run_mixed_throughput("locofs-a", 2, num_clients=3,
                                    items_per_client=4, pool=2)
        assert events == [("build", "locofs-c"), ("wave", "locofs-c"),
                          ("wave", "locofs-c"), ("build", "locofs-a"),
                          ("wave", "locofs-a"), ("wave", "locofs-a")]

    def test_latency_builds_its_recorder_after_its_system(self, monkeypatch):
        events = []
        self._tap(mdtest, monkeypatch, events)

        class Recorder(LatencyRecorder):
            def __init__(self, *args, **kwargs):
                events.append(("recorder", None))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(mdtest, "LatencyRecorder", Recorder)
        rec = run_latency("locofs-c", 1, n_items=3, ops=("touch",))
        assert isinstance(rec, Recorder)
        assert events == [("build", "locofs-c"), ("recorder", None)]


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

    def test_same_seed_same_trace(self):
        a = TraceGenerator(num_ops=5000, seed=7)
        b = TraceGenerator(num_ops=5000, seed=7)
        assert list(a.generate()) == list(b.generate())

    def test_paths_well_formed(self):
        gen = TraceGenerator(num_ops=500)
        from repro.common import pathutil

        for op in gen.generate():
            assert pathutil.normalize(op.path) == op.path
