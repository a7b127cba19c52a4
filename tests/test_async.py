"""LocoFS-A dependency-aware async updates + lookup-cache tier.

Pins the dependency-graph semantics of :class:`AsyncLocoClient`
(annihilation, last-write coalescing, cross-queue mkdir-before-create
ordering, read-your-writes barriers, deferred renames) and the cache
tier's coherence contract (hits after fill, invalidation on flush, zero
stale reads across clients)."""

import pytest

from repro.common.config import BatchConfig, ClusterConfig, LookupCacheConfig
from repro.common.errors import Exists, FSError, NoEntry, PermissionDenied
from repro.common.types import Credentials
from repro.core.asyncclient import AsyncLocoClient
from repro.core.client import BatchingLocoClient
from repro.core.fs import LocoFS
from repro.core.lookupcache import LookupCacheServer
from repro.harness import make_system, run_mixed_throughput
from repro.harness.workloads import ZipfPicker
from repro.metadata.layout import FILE_ACCESS, FILE_CONTENT


def async_fs(engine_kind="direct", num_servers=4, cache=True, **batch_kw):
    batch_kw.setdefault("max_ops", 64)
    cfg = ClusterConfig(
        num_metadata_servers=num_servers,
        batch=BatchConfig(enabled=True, all_ops=True, **batch_kw),
        lookup_cache=LookupCacheConfig(enabled=cache),
    )
    return LocoFS(cfg, engine_kind=engine_kind)


class TestDependencyGraph:
    def test_config_gates_client_class(self):
        assert isinstance(async_fs().client(), AsyncLocoClient)
        # all_ops=False keeps the create-only LocoFS-B client
        plain = LocoFS(ClusterConfig(num_metadata_servers=2,
                                     batch=BatchConfig(enabled=True)))
        c = plain.client()
        assert isinstance(c, BatchingLocoClient)
        assert not isinstance(c, AsyncLocoClient)
        assert isinstance(make_system("locofs-a", 2).client(), AsyncLocoClient)

    def test_all_update_kinds_defer(self):
        fs = async_fs()
        c = fs.client()
        c.mkdir("/d")
        c.create("/d/a")
        c.create("/d/b")
        c.flush()
        c.chmod("/d/a", 0o600)
        c.chown("/d/b", 7, 7)
        c.unlink("/d/b")
        c.rename("/d/a", "/d/a2")
        assert c.pending_ops > 0
        # nothing applied server-side yet
        assert fs.total_files() == 2
        c.flush()
        assert c.pending_ops == 0
        assert fs.total_files() == 1
        st = c.stat_file("/d/a2")
        assert st.st_mode & 0o7777 == 0o600

    def test_create_unlink_annihilation(self):
        fs = async_fs()
        c = fs.client()
        c.mkdir("/d")
        c.flush()
        c.create("/d/ephemeral")
        assert c.pending_ops == 1
        c.unlink("/d/ephemeral")
        assert c.annihilations == 1
        # the create is gone; one remove-if-exists guard remains (a durable
        # same-name file could be hiding under the annihilated create)
        assert c.pending_ops == 1
        c.flush()
        assert fs.total_files() == 0
        with pytest.raises(NoEntry):
            c.stat_file("/d/ephemeral")

    def test_chmod_coalesces_into_pending_create(self):
        fs = async_fs()
        c = fs.client()
        c.mkdir("/d")
        c.flush()
        c.create("/d/f", 0o644)
        for mode in (0o600, 0o640, 0o600):
            c.chmod("/d/f", mode)
        assert c.coalesced == 3
        assert c.pending_ops == 1  # still just the create
        c.flush()
        assert c.stat_file("/d/f").st_mode & 0o7777 == 0o600

    def test_setattr_merge_is_last_write_wins(self):
        fs = async_fs()
        c = fs.client()
        c.mkdir("/d")
        c.create("/d/f")
        c.flush()
        c.chmod("/d/f", 0o600)
        c.chown("/d/f", 5, 6)
        c.chmod("/d/f", 0o640)
        assert c.pending_ops == 1  # one merged setattr entry
        assert c.coalesced == 2
        c.flush()
        st = c.stat_file("/d/f")
        assert (st.st_mode & 0o7777, st.st_uid, st.st_gid) == (0o640, 5, 6)

    def test_mkdir_defers_and_orders_before_children(self):
        fs = async_fs()
        c = fs.client()
        before = fs.total_directories()
        c.mkdir("/newdir")
        assert fs.total_directories() == before  # still queued on the DMS
        c.create("/newdir/f")  # cross-queue dependency: DMS before FMS
        st = c.stat_file("/newdir/f")  # read forces both flushes, in order
        assert st is not None
        assert fs.total_directories() == before + 1
        assert c.pending_ops == 0

    def test_deferred_rename_of_pending_create(self):
        fs = async_fs()
        c = fs.client()
        c.mkdir("/d")
        c.create("/d/src", 0o640)
        c.rename("/d/src", "/d/dst")
        assert c.deferred_renames == 1
        assert fs.total_files() == 0  # still fully in-queue
        c.flush()
        assert c.stat_file("/d/dst").st_mode & 0o7777 == 0o640
        with pytest.raises(NoEntry):
            c.stat_file("/d/src")

    def test_rename_replaces_existing_destination(self):
        fs = async_fs()
        c = fs.client()
        c.mkdir("/d")
        c.create("/d/old")
        c.create("/d/dst")
        c.flush()
        c.write("/d/dst", 0, b"x" * 100)
        c.rename("/d/old", "/d/dst")
        c.flush()
        assert fs.total_files() == 1
        assert c.stat_file("/d/dst").st_size == 0  # the renamed file won

    def test_duplicate_create_raises_client_side_while_queued(self):
        fs = async_fs()
        c = fs.client()
        c.mkdir("/d")
        c.create("/d/f")
        with pytest.raises(Exists):
            c.create("/d/f")

    def test_unlink_then_create_reuses_name(self):
        fs = async_fs()
        c = fs.client()
        c.mkdir("/d")
        c.create("/d/f", 0o644)
        c.flush()
        c.unlink("/d/f")
        c.create("/d/f", 0o600)  # ordered behind the unlink in-queue
        c.flush()
        assert fs.total_files() == 1
        assert c.stat_file("/d/f").st_mode & 0o7777 == 0o600

    def test_setattr_before_mkdir_does_not_chmod_the_new_dir(self):
        # chmod of a nonexistent path defers as a file setattr; a *later*
        # deferred mkdir of the same path must not become its target at
        # flush time (the synchronous order raises NotFound before the
        # mkdir runs) — the guard forces the flush-time DMS fallback to
        # check the directory's identity
        fs = async_fs()
        c = fs.client()
        c.chmod("/a", 0o600)
        c.mkdir("/a")
        with pytest.raises(FSError):
            c.flush()
        c.flush()
        assert c.pending_ops == 0
        assert c.stat_dir("/a").st_mode & 0o7777 == 0o755

    def test_setattr_fallback_still_reaches_preexisting_dir(self):
        # ...but a chmod of a durable directory whose lease is not cached
        # keeps the legitimate DMS fallback
        fs = async_fs()
        c = fs.client()
        c.mkdir("/a")
        c.flush()
        c.dcache.invalidate("/a")
        c.chmod("/a", 0o700)
        c.flush()
        assert c.pending_ops == 0
        assert c.stat_dir("/a").st_mode & 0o7777 == 0o700

    def test_create_after_phantom_ops_still_lands(self):
        # a queued setattr or rename of a *nonexistent* path proves nothing
        # about the name it touches — a later create must not be rejected
        # client-side (the synchronous order fails the phantom op and then
        # creates the file); 1 FMS so the rename takes the deferred
        # same-server rename_local path
        fs = async_fs(num_servers=1)
        c = fs.client()
        c.chmod("/x", 0o600)
        c.rename("/a", "/b")
        c.create("/x")
        c.create("/b")
        for _ in range(4):
            try:
                c.flush()
                break
            except FSError:
                continue
        assert c.pending_ops == 0
        assert c.stat_file("/x").st_mode & 0o7777 == 0o644
        assert c.stat_file("/b").st_mode & 0o7777 == 0o644

    @pytest.mark.parametrize("name", ["locofs-c", "locofs-a"])
    def test_batched_mkdir_rechecks_ancestors_after_dsetattr(self, name):
        # the DMS applies [mkdir x1, dsetattr /a, mkdir x2] as one batch;
        # its ancestor-walk memo must not carry /a's search permission past
        # the chmod that revoked it — the synchronous order denies x2
        system = make_system(name, 2)
        root = system.client()
        root.mkdir("/a")
        root.chown("/a", 1000, 1000)
        getattr(root, "flush", lambda: None)()
        user = system.client(cred=Credentials(1000, 1000))
        user.mkdir("/a/b")
        user.mkdir("/a/b/c")
        flush = getattr(user, "flush", lambda: None)
        flush()
        user.mkdir("/a/b/x1")
        user.chmod("/a", 0o600)
        with pytest.raises(PermissionDenied, match="/a$"):
            user.mkdir("/a/b/x2")  # locofs-a defers it: the verdict comes at flush
            assert user.pending_ops == 3
            flush()
        assert getattr(user, "pending_ops", 0) == 0
        assert sorted(e.name for e in root.readdir("/a/b")) == ["c", "x1"]

    def test_readdir_sees_all_pending_entries(self):
        fs = async_fs()
        c = fs.client()
        c.mkdir("/d")
        for n in range(5):
            c.create(f"/d/f{n}")
        c.unlink("/d/f0")
        names = sorted(e.name for e in c.readdir("/d"))
        assert names == ["f1", "f2", "f3", "f4"]


class TestEngineParity:
    def _build(self, engine_kind):
        fs = async_fs(engine_kind=engine_kind, num_servers=3)
        c = fs.client()

        def ops():
            yield from c.op_generator("mkdir", "/d")
            for n in range(8):
                yield from c.op_generator("create", f"/d/f{n}")
            yield from c.op_generator("chmod", "/d/f0", 0o600)
            yield from c.op_generator("unlink", "/d/f1")
            yield from c.op_generator("rename", "/d/f2", "/d/g2")
            yield from c._g_flush()

        if engine_kind == "event":
            fs.engine.spawn(ops(), client=fs.engine.new_client())
            fs.engine.sim.run()
        else:
            fs.engine.run(ops())
        names = tuple(sorted(n for s in fs.fms for n in self._names(s)))
        return fs.total_files(), names

    @staticmethod
    def _names(fms):
        # authoritative server-side names via the access-part keyspace
        for k, _ in fms.store.prefix_scan(b"A:"):
            yield k.decode().rsplit("/", 1)[-1]

    def test_direct_and_event_reach_same_namespace(self):
        direct = self._build("direct")
        event = self._build("event")
        assert direct == event
        assert direct[0] == 7


class TestLookupCacheTier:
    def test_hits_after_fill(self):
        fs = async_fs()
        c = fs.client()
        c.mkdir("/d")
        c.create("/d/f")
        c.flush()
        for _ in range(4):
            c.stat_file("/d/f")
        ctr = fs.lookup_cache.counters
        # first stat misses twice (the /d lookup + the file getattr), the
        # three repeats hit the filled getattr entry (/d is in the dcache)
        assert ctr.get("misses") == 2
        assert ctr.get("hits") == 3
        assert fs.lookup_cache.hit_rate() == 0.6

    def test_flush_invalidates_written_entries(self):
        fs = async_fs()
        c = fs.client()
        c.mkdir("/d")
        c.create("/d/f")
        c.flush()
        c.stat_file("/d/f")  # fill
        c.chmod("/d/f", 0o600)
        c.flush()  # invalidation piggybacks on the durable batch
        assert fs.lookup_cache.counters.get("invalidations") >= 1

    def test_zero_stale_reads_across_clients(self):
        fs = async_fs()
        writer = fs.client()
        reader = fs.client()
        writer.mkdir("/d")
        writer.create("/d/f", 0o644)
        writer.flush()
        assert reader.stat_file("/d/f").st_mode & 0o7777 == 0o644  # fill
        writer.chmod("/d/f", 0o600)
        writer.flush()
        # the reader must observe the new mode — never the cached old one
        assert reader.stat_file("/d/f").st_mode & 0o7777 == 0o600
        writer.unlink("/d/f")
        writer.flush()
        with pytest.raises(NoEntry):
            reader.stat_file("/d/f")

    def test_switch_node_is_registered(self):
        fs = async_fs()
        assert "cache0" in fs.engine.switch_nodes
        # plain systems register none — the bit-identical guard
        assert not LocoFS(ClusterConfig(num_metadata_servers=2)).engine.switch_nodes

    def test_mixed_run_reports_cache_stats(self):
        r = run_mixed_throughput(
            "locofs-a", 2,
            mix={"stat": 0.6, "access": 0.2, "open": 0.1, "chmod": 0.1},
            num_clients=4, items_per_client=60, pool=10, zipf_s=1.2)
        assert r.errors == 0
        assert r.cache_hit_rate is not None and r.cache_hit_rate > 0.5
        assert r.cache_stats["hits"] > 0

    def test_trimmed_floor_still_rejects_a_stale_fill(self):
        """The bound on the stale floors must not forget a recent one: a
        re-invalidated key moves to the tail of the table, and the largest
        floor a trim drops becomes a watermark no admitted fill predates."""
        cache = LookupCacheServer(capacity=2)  # at most 8 floors
        key = ("fms0", 7, "k")
        a = FILE_ACCESS.pack(ctime=0.0, mode=0o100644, uid=0, gid=0)
        c = FILE_CONTENT.pack(mtime=0.0, atime=0.0, size=0, bsize=4096, suuid=9, sid=1)
        cache.op_invalidate((key,), (), 10.0)
        cache.op_invalidate(tuple(("fms0", 7, f"o{i}") for i in range(7)), (), 11.0)
        cache.op_invalidate((key,), (), 50.0)  # the write a slow read races
        cache.op_invalidate((("fms0", 7, "new"),), (), 51.0)  # 9 floors: trim one
        # a read issued at t=40, before the t=50 write, must not be cached
        assert cache.op_fill_file(*key, a, c, 40.0) is False
        # o0's own floor (t=11) was the one trimmed: the watermark stands in
        assert cache.op_fill_file("fms0", 7, "o0", a, c, 11.0) is False
        assert cache.counters.get("fills_rejected") == 2
        assert cache.op_fill_file(*key, a, c, 60.0) is True
        assert cache.op_fill_file("fms0", 7, "o0", a, c, 12.0) is True


class TestDeferredAnalyze:
    def test_every_deferred_kind_links_to_its_flush(self):
        from repro.obs import Tracer
        from repro.obs.analyze import analyze_ops, link_summary

        system = make_system("locofs-a", 2)
        tracer = Tracer()
        system.engine.attach_observability(tracer=tracer)
        c = system.client()
        c.mkdir("/d")
        for i in range(6):
            c.create(f"/d/f{i}")
        c.chmod("/d/f0", 0o600)  # coalesces into the pending create
        c.chown("/d/f1", 5, 5)
        c.unlink("/d/f2")
        c.rename("/d/f3", "/d/g3")
        c.chmod("/d", 0o700)  # deferred directory setattr
        c.flush()
        rep = analyze_ops(tracer)
        for op in ("client.mkdir", "client.create", "client.chmod",
                   "client.chown", "client.unlink", "client.rename"):
            row = rep[op]
            assert row["deferred"] == row["count"], op
            # enqueue-to-durable latency includes the client-queue wait
            assert row["latency_us"]["mean"] > 0
        links = link_summary(tracer)
        assert links["resolved"] == links["count"]
        assert links["multi_link_ops"] == 0


class TestSLOUnchanged:
    def test_default_slo_spec_evaluates_on_locofs_a(self):
        from repro.obs.slo import default_spec, evaluate_slo
        from repro.obs.telemetry import TelemetrySink

        sink = TelemetrySink()
        run_mixed_throughput("locofs-a", 2, num_clients=4,
                             items_per_client=40, telemetry=sink)
        report = evaluate_slo(default_spec(), sink)
        assert report["ok"], report


class TestZipfPicker:
    def test_deterministic_and_skewed(self):
        pa, pb = ZipfPicker(100, 1.2, seed=7), ZipfPicker(100, 1.2, seed=7)
        a = [pa.pick() for _ in range(500)]
        b = [pb.pick() for _ in range(500)]
        assert a == b
        assert all(0 <= k < 100 for k in a)
        # rank-0 must dominate under s=1.2
        assert a.count(0) > len(a) * 0.15

    def test_s_zero_is_uniform_ish(self):
        p = ZipfPicker(10, 0.0, seed=1)
        picks = [p.pick() for _ in range(2000)]
        counts = [picks.count(k) for k in range(10)]
        assert min(counts) > 100  # every rank drawn, no Zipf head

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfPicker(0, 1.0)
        with pytest.raises(ValueError):
            ZipfPicker(10, -0.5)

    def test_latency_harness_accepts_zipf(self):
        from repro.harness import run_latency

        rec = run_latency("locofs-a", 2, n_items=10, zipf_s=1.1,
                          ops=("mkdir", "touch", "file-stat"))
        assert rec.count("file-stat") == 10


#: the benchmark's ``async_mixed`` blend
_BLEND = {"create": 0.20, "chmod": 0.15, "chown": 0.05, "unlink": 0.10,
          "rename": 0.05, "mkdir": 0.05, "stat": 0.25, "access": 0.10, "open": 0.05}


class TestAsyncWorkCount:
    """The LocoFS-A path as an exact work count: Python calls per op of a
    small mixed run under cProfile repeat bit-for-bit, so a call added to
    the dependency queue, the batched flush or the lookup-cache tier is a
    test failure, not only a CI number."""

    def test_mixed_run_calls_per_op(self):
        """CPython 3.11.7: 160.28 calls per op in a fresh process and 160.29
        after other test modules (process-wide memos they filled cost a few
        calls), set-up wave and deployment included; the same run took
        197.22 before the group-commit scope, clock, sink-flag, write_at,
        ``FixedLayout.perm`` and harness-draw trims."""
        import cProfile

        kwargs = dict(mix=_BLEND, num_clients=16, items_per_client=60, pool=20,
                      zipf_s=1.0, seed=5)
        # imports and the process-wide memos (ring points, path splits) are
        # paid by this run, not by the counted one
        run_mixed_throughput("locofs-a", 4, **kwargs)
        prof = cProfile.Profile()
        r = prof.runcall(run_mixed_throughput, "locofs-a", 4, **kwargs)
        calls = sum(e.callcount for e in prof.getstats()) / r.total_ops
        assert (r.total_ops, r.errors) == (960, 0)
        assert calls <= 160.5, calls
