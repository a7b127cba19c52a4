"""LocoFS-B write-behind batching: client queue semantics, the Batch
command on both engines, amortized multi-op metering, and WAL group
commit."""

import contextlib
import hashlib
import os
import random

import pytest

from repro.common.config import BatchConfig, ClusterConfig
from repro.common.errors import Exists
from repro.core.client import BatchingLocoClient
from repro.core.fms import FileMetadataServer
from repro.core.fs import LocoFS
from repro.harness import (
    MIX_READ_MOSTLY,
    MIX_UPDATE_HEAVY,
    make_system,
    run_mixed_throughput,
    run_throughput,
)
from repro.harness.runner import _mixed_gen
from repro.harness.workloads import Workload, ZipfPicker
from repro.kv.api import GroupCommit
from repro.kv.hashdb import HashStore
from repro.kv.meter import Meter
from repro.kv.wal import OP_PUT, WriteAheadLog
from repro.obs import MetricsRegistry
from repro.sim import engine
from repro.sim.costmodel import CostModel, KVCostPolicy


def batched_fs(engine_kind="direct", num_servers=4, **batch_kw):
    cfg = ClusterConfig(num_metadata_servers=num_servers,
                        batch=BatchConfig(enabled=True, **batch_kw))
    return LocoFS(cfg, engine_kind=engine_kind)


class TestWriteBehindQueue:
    def test_batch_config_gates_client_class(self):
        assert isinstance(batched_fs().client(), BatchingLocoClient)
        plain = LocoFS(ClusterConfig(num_metadata_servers=4))
        assert not isinstance(plain.client(), BatchingLocoClient)

    def test_create_is_deferred_until_flush(self):
        fs = batched_fs(max_ops=64)
        c = fs.client()
        c.mkdir("/d")
        for n in range(6):
            assert c.create(f"/d/f{n}") is None  # uuid unknown while queued
        assert c.pending_ops == 6
        assert fs.total_files() == 0
        c.flush()
        assert c.pending_ops == 0
        assert fs.total_files() == 6

    def test_read_your_writes_stat(self):
        fs = batched_fs(max_ops=64)
        c = fs.client()
        c.mkdir("/d")
        c.create("/d/pending")
        st = c.stat_file("/d/pending")  # barrier flushes the owning queue
        assert st is not None
        assert c.pending_ops == 0

    def test_stat_flushes_only_the_owning_server(self):
        fs = batched_fs(max_ops=64)
        c = fs.client()
        c.mkdir("/d")
        for n in range(12):
            c.create(f"/d/f{n}")
        before = c.pending_ops
        c.stat_file("/d/f0")
        after = c.pending_ops
        assert 0 < after < before  # one FMS queue drained, others untouched

    def test_readdir_flushes_pending_entries_of_that_dir(self):
        fs = batched_fs(max_ops=64)
        c = fs.client()
        c.mkdir("/d")
        names = [f"f{n}" for n in range(8)]
        for n in names:
            c.create(f"/d/{n}")
        assert sorted(e.name for e in c.readdir("/d")) == sorted(names)
        assert c.pending_ops == 0

    def test_unlink_sees_pending_create(self):
        fs = batched_fs(max_ops=64)
        c = fs.client()
        c.mkdir("/d")
        c.create("/d/f")
        c.unlink("/d/f")
        c.flush()
        assert fs.total_files() == 0

    def test_duplicate_in_pending_window_raises_client_side(self):
        fs = batched_fs(max_ops=64)
        c = fs.client()
        c.mkdir("/d")
        c.create("/d/f")
        with pytest.raises(Exists):
            c.create("/d/f")

    def test_deferred_duplicate_surfaces_at_flush(self):
        fs = batched_fs(max_ops=64)
        c = fs.client()
        c.mkdir("/d")
        c.create("/d/f")
        c.flush()
        c.create("/d/f")  # queue is clean, so this defers again
        with pytest.raises(Exists):
            c.flush()

    def test_flush_drains_every_queue_past_a_deferred_error(self):
        """``flush()`` ships every queue before it raises: a duplicate
        create on one FMS used to stop the drain there, leaving the other
        queues' acknowledged creates undrained."""
        fs = batched_fs(max_ops=64)
        a, b = fs.client(), fs.client()
        a.mkdir("/d")
        a.create("/d/x")
        a.create("/d/z")
        a.flush()
        b.create("/d/x")  # both durable already: two deferred Exists
        b.create("/d/z")
        names = [f"y{n}" for n in range(12)]
        for n in names:
            b.create(f"/d/{n}")
        assert len(b._pending) == 4  # the creates span every FMS queue
        with pytest.raises(Exists):
            b.flush()
        assert b.pending_ops == 0
        assert len(b.deferred_errors) == 1
        assert isinstance(b.deferred_errors[0], Exists)
        assert sorted(e.name for e in a.readdir("/d")) == sorted(["x", "z", *names])
        assert fs.total_files() == 14

    def test_op_budget_triggers_flush(self):
        fs = batched_fs(num_servers=1, max_ops=3)
        c = fs.client()
        c.mkdir("/d")
        depths = []
        for n in range(9):
            c.create(f"/d/f{n}")
            depths.append(c.pending_ops)
        # single FMS: the queue cycles 1, 2, flush-at-3 → 0
        assert depths == [1, 2, 0, 1, 2, 0, 1, 2, 0]
        assert fs.total_files() == 9

    def test_byte_budget_triggers_flush(self):
        fs = batched_fs(max_ops=1000, max_bytes=120)
        c = fs.client()
        c.mkdir("/d")
        # ~50 modeled bytes per create: the third enqueue to any one FMS
        # crosses 120 and ships the queue
        for n in range(20):
            c.create(f"/d/f{n}")
        assert c.pending_ops < 20
        c.flush()
        assert fs.total_files() == 20

    def test_age_bound_triggers_flush(self):
        fs = batched_fs(max_ops=1000, max_age_us=1.0)
        c = fs.client()
        c.mkdir("/d")
        c.create("/d/f")
        assert c.pending_ops == 1
        c.mkdir("/elsewhere")  # advances the virtual clock past the bound
        c.stat_dir("/")  # stale check fires before the stat
        assert c.pending_ops == 0
        assert fs.total_files() == 1

    def test_namespace_identical_to_unbatched(self):
        def build(fs):
            c = fs.client()
            c.mkdir("/a")
            c.mkdir("/a/b")
            for n in range(10):
                c.create(f"/a/f{n}")
                c.create(f"/a/b/g{n}")
            if hasattr(c, "flush"):
                c.flush()
            return c

        plain = LocoFS(ClusterConfig(num_metadata_servers=4))
        batched = batched_fs(max_ops=4)
        cp, cb = build(plain), build(batched)
        for d in ("/a", "/a/b"):
            assert sorted(e.name for e in cp.readdir(d)) == \
                sorted(e.name for e in cb.readdir(d))
        assert plain.total_files() == batched.total_files()
        assert plain.total_directories() == batched.total_directories()

    def test_lease_renewal_is_not_a_cache_hit(self):
        fs = batched_fs(max_ops=2)
        c = fs.client()
        c.mkdir("/d")
        hits_before = c.dcache.hits
        c.create("/d/f0")
        c.create("/d/f1")  # budget reached: flush piggybacks a renewal
        # the creates' own parent resolutions may hit, but the renewal at
        # flush time must not add an extra hit beyond them
        assert c.dcache.hits - hits_before <= 2


class TestBatchCommandEngines:
    @pytest.mark.parametrize("engine_kind", ["direct", "event"])
    def test_batched_run_builds_namespace(self, engine_kind):
        fs = batched_fs(engine_kind=engine_kind, max_ops=8)
        if engine_kind == "direct":
            c = fs.client()
            c.mkdir("/d")
            for n in range(20):
                c.create(f"/d/f{n}")
            c.flush()
            assert fs.total_files() == 20
        else:
            done = []
            c = fs.client()

            def gen():
                yield from c.op_generator("mkdir", "/d")
                for n in range(20):
                    yield from c.op_generator("create", f"/d/f{n}")
                yield from c._g_flush()

            fs.engine.spawn(gen(), lambda v, e: done.append(e),
                            client=fs.engine.new_client())
            fs.engine.sim.run()
            assert done == [None]
            assert fs.total_files() == 20

    def test_batching_beats_baseline_throughput(self):
        kw = dict(op="touch", num_clients=16, items_per_client=12)
        base = run_throughput("locofs-c", 2, **kw)
        fast = run_throughput("locofs-b", 2, **kw)
        assert fast.iops > base.iops
        assert fast.total_ops == base.total_ops

    def test_registry_builds_batching_system(self):
        sys_ = make_system("locofs-b", num_servers=2)
        assert isinstance(sys_.client(), BatchingLocoClient)


class TestBatchedKVMetering:
    def _metered(self, cls, **kw):
        return cls(meter=Meter(KVCostPolicy(CostModel())), **kw)

    @pytest.mark.parametrize("cls", [HashStore])
    def test_multi_put_of_one_costs_like_put(self, cls):
        a, b = self._metered(cls), self._metered(cls)
        a.put(b"k", b"v" * 50)
        b.multi_put([(b"k", b"v" * 50)])
        assert b.meter.total_us == pytest.approx(a.meter.total_us)

    @pytest.mark.parametrize("cls", [HashStore])
    def test_multi_put_amortizes_base_cost(self, cls):
        cost = CostModel()
        pairs = [(f"k{i}".encode(), b"v" * 50) for i in range(8)]
        batch = self._metered(cls)
        batch.multi_put(pairs)
        single = self._metered(cls)
        for k, v in pairs:
            single.put(k, v)
        expected = single.meter.total_us - 7 * (cost.kv_put_us
                                                - cost.kv_batch_record_us)
        assert batch.meter.total_us == pytest.approx(expected)
        assert batch.meter.total_us < single.meter.total_us

    @pytest.mark.parametrize("cls", [HashStore])
    def test_multi_get_amortizes_and_aligns(self, cls):
        store = self._metered(cls)
        store.multi_put([(f"k{i}".encode(), f"v{i}".encode()) for i in range(4)])
        t0 = store.meter.total_us
        out = store.multi_get([b"k1", b"missing", b"k3"])
        assert out == [b"v1", None, b"v3"]
        cost = CostModel()
        spent = store.meter.total_us - t0
        assert spent < 3 * cost.kv_get_us + 6 * cost.kv_per_byte_us

    def test_empty_batches_charge_nothing(self):
        store = self._metered(HashStore)
        store.multi_put([])
        assert store.multi_get([]) == []
        assert store.meter.total_us == 0.0


class TestWALGroupCommit:
    def test_group_is_one_replayable_unit(self, tmp_path):
        p = str(tmp_path / "g.wal")
        wal = WriteAheadLog(p)
        wal.begin_group()
        wal.append_put(b"a", b"1")
        wal.append_put(b"b", b"2")
        wal.end_group()
        wal.close()
        assert [(k, v) for _, k, v in WriteAheadLog.replay(p)] == \
            [(b"a", b"1"), (b"b", b"2")]

    def test_nested_groups_flush_once_at_outermost(self, tmp_path):
        p = str(tmp_path / "n.wal")
        wal = WriteAheadLog(p)
        wal.begin_group()
        wal.append_put(b"a", b"1")
        wal.begin_group()  # e.g. multi_put inside an engine batch scope
        wal.append_put(b"b", b"2")
        wal.end_group()
        assert os.path.getsize(p) == 0  # inner end does not write
        wal.append_put(b"c", b"3")
        wal.end_group()
        wal.flush()
        assert os.path.getsize(p) > 0
        wal.close()
        assert [k for _, k, _ in WriteAheadLog.replay(p)] == [b"a", b"b", b"c"]

    def test_append_many_matches_individual_appends(self, tmp_path):
        # ... made in one group: a batch outside a group is one of its own
        p1, p2 = str(tmp_path / "m1.wal"), str(tmp_path / "m2.wal")
        records = [(OP_PUT, f"k{i}".encode(), b"v") for i in range(5)]
        w1 = WriteAheadLog(p1)
        w1.append_many(records)
        w1.close()
        w2 = WriteAheadLog(p2)
        w2.begin_group()
        for _, k, v in records:
            w2.append_put(k, v)
        w2.end_group()
        w2.close()
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_store_group_scope_survives_crash_replay(self, tmp_path):
        p = str(tmp_path / "s.wal")
        store = HashStore(wal_path=p)
        with GroupCommit(store):
            store.multi_put([(b"x", b"1"), (b"y", b"2")])
            store.put(b"z", b"3")
        # crash: no close(); reopen from the log alone
        store._wal.flush()
        recovered = HashStore(wal_path=str(tmp_path / "s.wal"))
        assert recovered.get(b"x") == b"1"
        assert recovered.get(b"z") == b"3"


class TestPinnedCreateClock:
    """The one deferred-create path, pinned to the clock: values measured
    through ``client.create()``, 4 FMS, DirectEngine, with every due queue
    shipped in one flush round (``flushes`` records one line per round)."""

    @staticmethod
    def _build(dir_fmt, name_fmt, dirs, files, **batch_kw):
        fs = batched_fs(**batch_kw)
        c = fs.client()
        flushes = []
        flush_server = c._g_flush_server

        def spy(servers, reason):
            flushes.append(f"{'+'.join(servers)} {reason}")
            return flush_server(servers, reason)

        c._g_flush_server = spy
        for d in range(dirs):
            parent = dir_fmt.format(d)
            c.mkdir(parent)
            for n in range(files):
                c.create(f"{parent}/{name_fmt.format(n)}")
        return fs, c, flushes

    def test_budget_flushes_3x40_at_8_ops(self):
        fs, c, _ = self._build("/d{}", "f{:03d}", 3, 40, max_ops=8)
        c.flush()
        assert fs.engine.now == 4265.009333333334
        assert fs.total_files() == 120
        served = {name: (fs.cluster[name].meter.total_us,
                         fs.cluster[name].requests_served)
                  for name in fs.fms_names}
        assert served == {"fms0": (83.344, 4),
                          "fms1": (70.86399999999995, 3),
                          "fms2": (115.48000000000019, 5),
                          "fms3": (108.98800000000013, 5)}

    def test_age_flush_cascade_3x500_at_256_ops(self):
        # the queues due at once ship in one round: no age flush waits
        # behind another, so none makes the next queue stale and the
        # flushes do not cascade
        fs, c, flushes = self._build("/d{:05d}", "f{:06d}", 3, 500,
                                     max_ops=256, max_bytes=1 << 20)
        assert fs.engine.now == 3080.0242735042493
        assert flushes == ["fms3 full", "fms0 full", "fms2+fms1 age"]
        c.flush()
        assert fs.engine.now == 3743.420205128172
        assert flushes[3:] == ["fms3+fms0+fms2+fms1 drain"]
        assert [fs.cluster[name].requests_served for name in fs.fms_names] \
            == [2, 2, 2, 2]


class TestOneWriteBehindQueue:
    """One queue structure, one flush, one wire method for LocoFS-B and -A."""

    @pytest.mark.parametrize("all_ops", [False, True], ids=["writebehind", "async"])
    def test_every_flush_is_one_apply_batch(self, all_ops):
        from repro.obs import MetricsRegistry

        fs = batched_fs(num_servers=1, max_ops=4, all_ops=all_ops)
        metrics = MetricsRegistry()
        fs.attach_observability(metrics=metrics)
        c = fs.client()
        c.mkdir("/d")
        for n in range(9):
            c.create(f"/d/f{n}")
        c.chmod("/d/f0", 0o600)
        c.unlink("/d/f1")
        c.flush()
        counters = metrics.snapshot()["counters"]
        assert "fms0.op.create_batch" not in counters
        assert counters["fms0.op.apply_batch"] >= 2
        # every shipped flush is one batched request, counted by its cause
        batches = sum(n for name, n in counters.items() if name.endswith(".batches"))
        assert sum(c.flush_causes.values()) == batches
        assert c.flush_causes["full"] >= 2 and c.flush_causes["drain"] >= 1
        assert [e.name for e in c.readdir("/d")] == \
            ["f0"] + [f"f{n}" for n in range(2, 9)]

    def test_async_client_overrides_none_of_the_queue_machinery(self):
        from repro.core.asyncclient import AsyncLocoClient

        for name in ("_g_flush_server", "_g_flush_stale", "_g_flush", "_g_create",
                     "_requeue", "pending_ops"):
            assert name not in AsyncLocoClient.__dict__, name

    def test_mixed_throughput_reports_flush_causes(self):
        from repro.harness import run_mixed_throughput

        for system in ("locofs-a", "locofs-b"):
            causes = run_mixed_throughput(system, 2, num_clients=2, items_per_client=20,
                                          pool=4).flush_causes
            assert set(causes) == {"full", "age", "read", "dep", "drain"}
            assert sum(causes.values()) > 0
        assert run_mixed_throughput("locofs-c", 2, num_clients=2, items_per_client=20,
                                    pool=4).flush_causes == {}


# -- the group-commit scope and the mixed-op draw, exact --------------------------


@contextlib.contextmanager
def _generator_scope(store, counters=None):
    """The group-commit scope as a generator: the reference the slotted
    ``GroupCommit`` replaced."""
    wal = store._wal
    wal.begin_group()
    try:
        yield
    finally:
        before = wal.commits
        wal.end_group()
        if wal.commits != before:
            store.meter.charge_us(0.0, "wal_commit")
            counters.inc("wal.fsync")


def _walled_flushes(data_dir):
    """Batched LocoFS-A flushes to 2 FMS and the DMS, every server on a WAL:
    (group-commit counters, WAL digests)."""
    fs = LocoFS(ClusterConfig(num_metadata_servers=2,
                              batch=BatchConfig(enabled=True, all_ops=True,
                                                max_ops=8)),
                data_dir=str(data_dir))
    registry = MetricsRegistry()
    fs.engine.attach_observability(metrics=registry)
    c = fs.client()
    c.mkdir("/d")
    c.mkdir("/d/e")
    for n in range(12):
        c.create(f"/d/f{n}")
    c.chmod("/d/f0", 0o600)
    c.unlink("/d/f1")
    c.chown("/d/e", 5, 5)
    c.flush()
    fs.close()
    counters = {k: v for k, v in registry.snapshot()["counters"].items()
                if k.endswith(("wal.fsync", "kv.wal_commit"))}
    digests = {name: hashlib.sha256((data_dir / f"{name}.wal").read_bytes()).hexdigest()[:16]
               for name in ("dms", "fms0", "fms1")}
    return counters, digests


class TestGroupCommitScope:
    """The engines serve each request of a WAL-backed server in one slotted
    scope object; it leaves what a generator scope leaves."""

    #: measured with the generator scope; the DMS's third commit is the
    #: plain ``reserve_uuids`` request's allocator checkpoint
    COUNTERS = {
        "dms.kv.wal_commit": 3, "dms.wal.fsync": 3,
        "fms0.kv.wal_commit": 2, "fms0.wal.fsync": 2,
        "fms1.kv.wal_commit": 1, "fms1.wal.fsync": 1,
    }
    #: the logs' bytes, group flags and reply-cache notes included (no
    #: plain request here logs more than one record, so none is flagged;
    #: fms0's note holds the unlink's removal reply, ``bsize`` included)
    DIGESTS = {"dms": "5fb75426adc410db", "fms0": "9ce35664190847f1",
               "fms1": "504fce80b9007fa0"}

    def test_batched_flushes_match_the_generator_pair(self, tmp_path, monkeypatch):
        got = _walled_flushes(tmp_path / "scope")
        assert got == (self.COUNTERS, self.DIGESTS)
        monkeypatch.setattr(engine, "GroupCommit", _generator_scope)
        assert _walled_flushes(tmp_path / "pair") == got

    def test_raising_body_still_ends_the_group(self, tmp_path):
        fms = FileMetadataServer(sid=1, wal_path=str(tmp_path / "f.wal"))
        wal = fms.store._wal
        with pytest.raises(RuntimeError):
            with GroupCommit(fms.store, fms.counters):
                fms.store.put(b"k", b"v")
                raise RuntimeError("handler bug")
        assert (wal._group, wal._group_depth, wal.commits) == (None, 0, 1)
        assert fms.counters.get("wal.fsync") == 1
        assert fms.meter.count("wal_commit") == 1

    def test_nested_multi_put_group_commits_once(self, tmp_path):
        fms = FileMetadataServer(sid=1, wal_path=str(tmp_path / "f.wal"))
        wal = fms.store._wal
        before = wal.commits
        with GroupCommit(fms.store, fms.counters):
            fms.store.multi_put([(b"a", b"1"), (b"b", b"2")])
            fms.store.put(b"c", b"3")
        assert wal.commits == before + 1
        assert fms.counters.get("wal.fsync") == 1
        assert fms.meter.count("wal_commit") == 1


#: the benchmark's ``async_mixed`` blend
_BLEND = {"create": 0.20, "chmod": 0.15, "chown": 0.05, "unlink": 0.10,
          "rename": 0.05, "mkdir": 0.05, "stat": 0.25, "access": 0.10, "open": 0.05}
#: unlink-heavy: the pool runs dry, so the "nothing live: create" rule fires
_DRAIN = {"unlink": 0.6, "create": 0.1, "chmod": 0.1, "stat": 0.2}


class _Recorder:
    """A client that records the calls the harness issues and runs none."""

    def __init__(self):
        self.calls = []

    def op_generator(self, op, *args):
        self.calls.append((op, *args))
        return iter(())


def _choices_stream(mix, seed, cid, wl, pool, zipf_s):
    """The calls ``_mixed_gen`` issues with each op drawn by
    ``random.choices``: the reference for its inlined draw."""
    rng = random.Random((cid * 2654435761 + seed) & 0xFFFFFFFF)
    ops = sorted(mix)
    cum, acc = [], 0.0
    for o in ops:
        acc += mix[o]
        cum.append(acc)
    picker = ZipfPicker(max(pool, 1), zipf_s, seed=seed * 31 + cid) if zipf_s else None
    wd = wl.work_dir(cid)
    live = [f"f{n:06d}" for n in range(pool)]
    fresh, dfresh, calls = pool, 0, []

    def hot():
        return picker.pick() % len(live) if picker else rng.randrange(len(live))

    for _ in range(wl.items_per_client):
        op = rng.choices(ops, cum_weights=cum)[0]
        if not live and op in ("stat", "access", "open", "chmod", "chown",
                               "unlink", "rename"):
            op = "create"
        if op == "create":
            calls.append(("create", f"{wd}/f{fresh:06d}"))
            live.append(f"f{fresh:06d}")
            fresh += 1
        elif op == "mkdir":
            calls.append(("mkdir", wl.dir_path(cid, dfresh)))
            dfresh += 1
        elif op == "unlink":
            calls.append(("unlink", f"{wd}/{live.pop(rng.randrange(len(live)))}"))
        elif op == "rename":
            i = rng.randrange(len(live))
            calls.append(("rename", f"{wd}/{live[i]}", f"{wd}/f{fresh:06d}"))
            live[i] = f"f{fresh:06d}"
            fresh += 1
        elif op == "chmod":
            name = live[hot()]
            calls.append(("chmod", f"{wd}/{name}", rng.choice((0o600, 0o640, 0o644))))
        elif op == "chown":
            calls.append(("chown", f"{wd}/{live[hot()]}", 1000 + fresh % 7, 1000))
        elif op == "stat":
            calls.append(("stat_file", f"{wd}/{live[hot()]}"))
        else:
            calls.append((op, f"{wd}/{live[hot()]}", 4))
    return calls


class TestMixedDraw:
    """``_mixed_gen`` draws each op with the expression ``random.choices``
    evaluates: the op stream, and every RNG draw after it, is unchanged."""

    @pytest.mark.parametrize("zipf_s", [None, 1.0], ids=["uniform", "zipf"])
    @pytest.mark.parametrize("mix", [MIX_UPDATE_HEAVY, MIX_READ_MOSTLY, _BLEND, _DRAIN],
                             ids=["update-heavy", "read-mostly", "blend", "drain"])
    def test_op_stream_is_random_choices(self, mix, zipf_s):
        wl = Workload(items_per_client=60)
        for seed in range(24):
            cid = seed % 5
            client = _Recorder()
            box = {"ops": 0, "errors": 0, "per_op": {}}
            for _ in _mixed_gen(client, wl, cid, mix, CostModel(), box, seed,
                                zipf_s, 6):
                pass
            assert client.calls == _choices_stream(mix, seed, cid, wl, 6, zipf_s)
            assert box["ops"] == 60

    @pytest.mark.parametrize("seed, want", [
        (1, ({"access": 23, "chmod": 24, "chown": 6, "create": 39, "mkdir": 6,
              "open": 11, "rename": 6, "stat": 59, "unlink": 26}, 0, 6759.564478632476)),
        (2, ({"access": 19, "chmod": 28, "chown": 7, "create": 37, "mkdir": 12,
              "open": 16, "rename": 12, "stat": 44, "unlink": 25}, 0, 8674.324649572653)),
    ])
    def test_pinned_op_counts(self, seed, want):
        """Values measured with ``random.choices`` drawing the ops."""
        r = run_mixed_throughput("locofs-a", 2, mix=_BLEND, num_clients=4,
                                 items_per_client=50, pool=10, zipf_s=1.0, seed=seed)
        assert (r.op_counts, r.errors, r.elapsed_us) == want
