"""LocoFS-A dependency-aware async updates + lookup-cache tier.

Pins the dependency-graph semantics of :class:`AsyncLocoClient`
(annihilation, last-write coalescing, cross-queue mkdir-before-create
ordering, read-your-writes barriers, deferred renames) and the cache
tier's coherence contract (hits after fill, invalidation on flush, zero
stale reads across clients)."""

import pytest

from repro.common.config import BatchConfig, ClusterConfig, LookupCacheConfig
from repro.common.errors import Exists, FSError, NoEntry, PermissionDenied
from repro.common.types import ROOT_CRED, Credentials
from repro.core.asyncclient import AsyncLocoClient
from repro.core.client import BatchingLocoClient
from repro.core.fs import LocoFS
from repro.core.lookupcache import LookupCacheServer
from repro.harness import make_system, run_mixed_throughput
from repro.harness.workloads import ZipfPicker
from repro.metadata.layout import FILE_ACCESS, FILE_CONTENT
from repro.sim.faults import FaultSchedule, RetryPolicy

from ring_names import dir_uuid, names_on_one_fms


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
        # a rename defers only within one FMS: a cross-FMS one is two
        # synchronous RPCs
        uuid = dir_uuid(fs, c, "/d")
        src, dst = names_on_one_fms(c.ring, uuid, 2, prefix="a")
        assert c.ring.lookup_file(uuid, src) == c.ring.lookup_file(uuid, dst)
        c.create(f"/d/{src}")
        c.create("/d/b")
        c.flush()
        c.chmod(f"/d/{src}", 0o600)
        c.chown("/d/b", 7, 7)
        c.unlink("/d/b")
        c.rename(f"/d/{src}", f"/d/{dst}")
        assert c.pending_ops > 0
        # nothing applied server-side yet
        assert fs.total_files() == 2
        c.flush()
        assert c.pending_ops == 0
        assert fs.total_files() == 1
        st = c.stat_file(f"/d/{dst}")
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

    def test_counters_mirror_into_an_attached_registry(self):
        from repro.obs import MetricsRegistry

        fs = async_fs()
        c = fs.client()
        c.mkdir("/d")
        c.create("/d/f")
        c.flush()
        c.stat_file("/d/f")  # two misses before the registry exists
        metrics = MetricsRegistry()
        fs.attach_observability(metrics=metrics)
        for _ in range(3):
            c.stat_file("/d/f")
        # binding flushes the counts so far, then mirrors every increment
        assert metrics.counters["cache0.misses"].value == 2
        assert metrics.counters["cache0.hits"].value == 3

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

        def fill(fkey, issued_at):
            return ("file", *fkey, a + c, issued_at)

        # a read issued at t=40, before the t=50 write, must not be cached
        assert cache.apply_fill(fill(key, 40.0)) is False
        # o0's own floor (t=11) was the one trimmed: the watermark stands in
        assert cache.apply_fill(fill(("fms0", 7, "o0"), 11.0)) is False
        assert cache.counters.get("fills_rejected") == 2
        assert cache.apply_fill(fill(key, 60.0)) is True
        assert cache.apply_fill(fill(("fms0", 7, "o0"), 12.0)) is True


    @pytest.mark.parametrize("engine_kind", ["direct", "event"])
    def test_cache_crash_between_read_and_carried_fill(self, engine_kind):
        """A crash is amnesia: the node forgets its stale floors with its
        entries.  The reader's fill, read before the writer's chmod and
        held across the node's crash and restart, must still be refused
        when it finally rides the reader's next request — the restart's
        own floor refuses it — so that request reads the new mode."""
        fs = async_fs(engine_kind)
        writer, reader = fs.client(), fs.client()
        writer.mkdir("/d")
        writer.create("/d/f", 0o644)
        writer.flush()
        assert reader.stat_file("/d/f").st_mode & 0o7777 == 0o644
        assert reader._fill is not None  # held: the miss sent no fill
        writer.chmod("/d/f", 0o600)
        writer.flush()  # invalidates /d/f: the floor a crash forgets
        cache = fs.lookup_cache
        now = fs.engine.now
        fs.engine.attach_faults(
            FaultSchedule().crash_restart("cache0", now + 1.0, 1.0),
            # patient enough to outlast the restart's recovery
            retry=RetryPolicy(max_retries=6, base_us=20_000.0, cap_us=25_000.0))
        assert reader.stat_file("/d/f").st_mode & 0o7777 == 0o600
        assert fs.cluster["cache0"].crashes == 1
        assert fs.engine.faults.retries >= 1  # the fill waited out the outage
        assert cache.counters.get("fills_rejected") == 1
        assert cache._invalidated_at == {}  # the crash kept no floor
        assert writer.stat_file("/d/f").st_mode & 0o7777 == 0o600

    def test_crash_forgets_floors_and_resume_sets_one(self):
        cache = LookupCacheServer()
        a = FILE_ACCESS.pack(ctime=0.0, mode=0o100644, uid=0, gid=0)
        c = FILE_CONTENT.pack(mtime=0.0, atime=0.0, size=0, bsize=4096, suuid=9, sid=1)
        key = ("fms0", 7, "k")
        cache.op_invalidate((key,), ("/d",), 10.0)
        cache.op_invalidate_prefix("/d", 20.0)
        cache.crash()
        assert cache._invalidated_at == {} and cache._dir_epoch == 0.0
        # down, not yet resumed: no fill is admitted, however recent
        assert cache.apply_fill(("file", *key, a + c, 1e12)) is False
        cache.restart()
        cache.resume(500.0)
        assert cache.apply_fill(("file", *key, a + c, 500.0)) is False
        assert cache.apply_fill(("file", *key, a + c, 500.5)) is True


def _served(fs) -> dict:
    return {n.name: n.requests_served for n in fs.cluster.nodes()}


def _sent(fs, before: dict) -> dict:
    """Requests each server served since ``before`` (servers that served
    none left out)."""
    return {k: v - before[k] for k, v in _served(fs).items() if v != before[k]}


class _Watched(AsyncLocoClient):
    """An async client that counts the fills it makes, and the held fills
    a new one would replace (the one-slot bound says: none)."""

    made = replaced = 0
    _held = None

    @property
    def _fill(self):
        return self._held

    @_fill.setter
    def _fill(self, fill):
        if fill is not None:
            self.made += 1
            if self._held is not None:
                self.replaced += 1
        self._held = fill


@pytest.mark.parametrize("engine_kind", ["direct", "event"])
class TestCarriedFill:
    """A lookup-cache miss holds its fill for the client's next cache-node
    request instead of sending one of its own; a read whose barrier just
    flushed its own key skips the probe when no fill is held."""

    @staticmethod
    def _fs(engine_kind):
        """``/d/f`` and ``/d/g`` durable, no fill held, nothing queued."""
        fs = make_system("locofs-a", 4, engine_kind=engine_kind)
        c = fs.client()
        c.mkdir("/d")
        c.create("/d/f")
        c.create("/d/g")
        c.flush()
        c.truncate("/d/g", 0)  # its invalidate carries the held "/" fill
        assert c._fill is None and not c.pending_ops
        return fs, c

    def test_a_miss_is_one_probe_and_one_getattr(self, engine_kind):
        fs, c = self._fs(engine_kind)
        fms = c._fms_for(c.stat_dir("/d").st_uuid, "f")
        ctr = fs.lookup_cache.counters
        fills, misses, before = ctr.get("fills"), ctr.get("misses"), _served(fs)
        c.stat_file("/d/f")
        assert _sent(fs, before) == {"cache0": 1, fms: 1}  # no fill request
        assert (ctr.get("misses"), ctr.get("fills")) == (misses + 1, fills)
        assert c._fill[:4] == ("file", fms, c.stat_dir("/d").st_uuid, "f")

    def test_the_next_request_carries_the_fill(self, engine_kind):
        fs, c = self._fs(engine_kind)
        ctr = fs.lookup_cache.counters
        c.stat_file("/d/f")  # miss: f's fill held
        fills, hits = ctr.get("fills"), ctr.get("hits")
        c.access("/d/g", 4)  # its probe carries f's fill, then misses on g
        assert ctr.get("fills") == fills + 1
        before = _served(fs)
        c.open("/d/f", 4)  # the probe after that hits (and carries g's fill)
        assert _sent(fs, before) == {"cache0": 1}
        assert (ctr.get("hits"), ctr.get("fills")) == (hits + 1, fills + 2)
        assert c._fill is None

    def test_a_flush_invalidate_carries_the_fill(self, engine_kind):
        fs, c = self._fs(engine_kind)
        ctr = fs.lookup_cache.counters
        c.stat_file("/d/f")  # miss: f's fill held
        fills = ctr.get("fills")
        c.chmod("/d/g", 0o600)
        c.flush()  # the round's invalidate of g carries f's fill
        assert ctr.get("fills") == fills + 1 and c._fill is None
        before = _served(fs)
        assert c.stat_file("/d/f").st_mode == 0o100644
        assert _sent(fs, before) == {"cache0": 1}  # a hit

    def test_a_barrier_read_with_no_held_fill_sends_no_probe(self, engine_kind):
        fs, c = self._fs(engine_kind)
        ctr = fs.lookup_cache.counters
        uuid = c.stat_dir("/d").st_uuid
        counts = (ctr.get("hits"), ctr.get("misses"))
        # a setattr barrier: the flush's invalidate is the only cache request
        c.chmod("/d/f", 0o600)
        before = _served(fs)
        assert c.stat_file("/d/f").st_mode == 0o100600
        assert _sent(fs, before) == {"cache0": 1, c._fms_for(uuid, "f"): 2}
        # a create barrier sends no invalidate: no cache request at all
        c.open("/d/f", 4)  # a hit on the fill just carried, so none is held
        assert c._fill is None
        c.create("/d/h")
        before = _served(fs)
        c.stat_file("/d/h")
        assert _sent(fs, before) == {c._fms_for(uuid, "h"): 2}
        # a skipped probe is neither a hit nor a miss
        assert (ctr.get("hits"), ctr.get("misses")) == (counts[0] + 1, counts[1])

    def test_a_barrier_read_holding_a_fill_probes(self, engine_kind):
        fs, c = self._fs(engine_kind)
        uuid = c.stat_dir("/d").st_uuid
        c.stat_file("/d/f")  # miss: f's fill held
        c.create("/d/h")
        before = _served(fs)
        c.access("/d/h", 4)  # the fill needs a request to ride
        assert _sent(fs, before) == {"cache0": 1, c._fms_for(uuid, "h"): 2}

    def test_a_fill_read_before_an_invalidation_is_rejected(self, engine_kind):
        """The reader's fill is issued before the writer's invalidation and
        carried by the reader's next probe, after it: rejected by issue
        time, and that same probe misses instead of serving the old mode."""
        fs, writer = self._fs(engine_kind)
        reader = fs.client()
        ctr = fs.lookup_cache.counters
        assert reader.stat_file("/d/f").st_mode == 0o100644  # miss, fill held
        writer.chmod("/d/f", 0o600)
        writer.flush()
        rejected = ctr.get("fills_rejected")
        assert reader.stat_file("/d/f").st_mode == 0o100600
        assert ctr.get("fills_rejected") == rejected + 1
        assert reader.stat_file("/d/f").st_mode == 0o100600  # a hit, fresh

    def test_a_lookup_fill_is_the_durable_d_inode(self, engine_kind):
        """A deferred directory chmod edits the client's cached d-inode in
        place; the lookup fill it holds was snapshotted when the DMS
        replied, so other clients never see the queued mode."""
        fs, maker = self._fs(engine_kind)
        c = fs.client()
        c.chmod("/d/x", 0o600)  # resolves /d: a lookup miss, its fill held
        assert c._fill[:2] == ("lookup", "/d")
        c.chmod("/d", 0o700)  # deferred: the cached d-inode now says 0o700
        c.stat_file("/d/f")  # the probe carries the /d fill
        assert fs.client().stat_dir("/d").st_mode == 0o40755  # a cache hit
        with pytest.raises(NoEntry):
            c.flush()  # /d/x never existed
        assert fs.client().stat_dir("/d").st_mode == 0o40700

    def test_at_most_one_fill_is_held(self, engine_kind):
        """A seeded op mix over two clients: no fill ever replaces a held
        one, and every fill made was applied or rejected at the cache
        node, or is the one still held."""
        import random

        fs, c = self._fs(engine_kind)
        other = fs.client()
        c.__class__ = other.__class__ = _Watched
        rng = random.Random(7)
        names = [f"/d/n{i}" for i in range(6)]
        for name in names:
            c.create(name)
        ctr = fs.lookup_cache.counters
        applied = ctr.get("fills") + ctr.get("fills_rejected")
        for _ in range(400):
            op = rng.choice(("stat_file", "stat_file", "access", "open", "chmod",
                             "create", "unlink", "rename", "mkdir", "stat_dir",
                             "flush"))
            path = rng.choice(names)
            try:
                if op == "chmod":
                    c.chmod(path, rng.choice((0o600, 0o644)))
                elif op in ("access", "open"):
                    getattr(c, op)(path, 4)
                elif op == "rename":
                    c.rename(path, rng.choice(names))
                elif op == "mkdir":
                    c.mkdir(f"/d/m{rng.randrange(4)}")
                elif op == "stat_dir":
                    c.stat_dir(f"/d/m{rng.randrange(4)}")
                elif op == "flush":
                    c.flush()
                else:
                    getattr(c, op)(path)
                if rng.random() < 0.2:
                    other.chmod(rng.choice(names), 0o640)
                    other.flush()
            except FSError:
                pass
        assert c.made > 25
        assert c.replaced == other.replaced == 0
        made = c.made + other.made
        held = (c._fill is not None) + (other._fill is not None)
        assert ctr.get("fills") + ctr.get("fills_rejected") - applied == made - held


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

    @pytest.mark.usefixtures("quiet_gc")
    def test_mixed_run_calls_per_op(self):
        """CPython 3.11.7: 130.61 calls per op in a fresh process (process-
        wide memos filled by other test modules can add a few hundredths),
        set-up wave and deployment included.  The same run took 132.70
        before the positional getattr reply, 152.50 before the lean
        write-behind round trip (inline staleness and
        d-cache probes, the plain enqueue, the WAL-less group-commit scope,
        the lean create run, op functions resolved once by the harness)
        and 197.22 before the group-commit scope, clock, sink-flag,
        write_at, ``FixedLayout.perm`` and harness-draw trims."""
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
        assert calls <= 130.7, calls


def _flush_stats(kind):
    """cProfile stats of one ``flush()`` of a LocoFS-A client whose queue
    holds one deferred ``create`` or one deferred ``setattr`` (EventEngine,
    warm: d-cache, queues, meter keys and memos filled by earlier ops)."""
    import cProfile
    import pstats

    fs = make_system("locofs-a", 2, engine_kind="event")
    c = fs.client()
    c.mkdir("/d")
    for n in range(4):
        c.create(f"/d/w{n}")
    c.chmod("/d/w0", 0o600)
    c.flush()
    if kind == "create":
        c.create("/d/a")
    else:
        c.chmod("/d/w1", 0o640)
    assert c.pending_ops == 1
    prof = cProfile.Profile()
    prof.runcall(c.flush)
    return pstats.Stats(prof)


def _calls_in(stats, *modules):
    """Calls per ``module:function`` for the named ``src/repro`` modules."""
    out = {}
    for (path, _, name), row in stats.stats.items():
        path = path.replace("\\", "/")
        for mod in modules:
            if path.endswith(f"repro/{mod}.py"):
                out[f"{mod}:{name}"] = row[1]
    return out


@pytest.mark.usefixtures("quiet_gc")
class TestFlushRoundTripWorkCount:
    """One LocoFS-A write-behind round trip pays little beyond its entries'
    own handler work: exact per-function call counts across the client
    flush, the engine's batch dispatch, ``op_apply_batch`` and the settle
    step (generator resumes count as calls)."""

    #: the round trip's fixed frame around the handler work
    FRAME = {
        "core/client:flush": 1, "core/client:<lambda>": 1,
        "sim/engine:run": 1, "sim/engine:done": 1, "sim/engine:spawn": 1,
        "sim/engine:__init__": 1, "sim/engine:_exec_batch": 1,
        "kv/api:group_scope": 1, "core/fms:group_commit": 1,
        "core/fms:op_apply_batch": 1,
    }

    def test_one_entry_create_flush(self):
        """CPython 3.11.7 counts 90 calls in all, against 116 before the
        lean round trip: a ``GroupCommit`` built, entered and exited for a
        store without a WAL, an ``_allocate_uuids`` frame and two list
        comprehensions, the create entry re-tupled for ``op_create_batch``,
        the ``_obs_active`` property, and a ``batch.records`` increment
        by 0."""
        stats = _flush_stats("create")
        assert _calls_in(stats, "core/client", "core/asyncclient", "sim/engine",
                         "core/fms", "kv/api") == {
            **self.FRAME,
            "core/client:_g_flush": 2, "core/client:_g_flush_server": 2,
            "sim/engine:_step": 2, "sim/engine:_arrive": 1,
            "core/fms:op_create_batch": 1, "kv/api:_charge_batch": 2}
        assert stats.total_calls <= 90

    def test_one_entry_setattr_flush(self):
        """CPython 3.11.7 counts 117 calls in all, the lookup-cache
        invalidation round trip included: a third ``_g_flush_server``
        resume, a second ``_step`` and ``_arrive``.  That invalidation
        also carries the fill the client has held since its set-up
        ``mkdir`` missed on ``/`` (``apply_fill``, ``_evict_for`` and the
        store put: 14 calls; 103 before fills rode other requests, when
        the set-up paid a ``fill_lookup`` round trip of its own)."""
        stats = _flush_stats("setattr")
        assert _calls_in(stats, "core/client", "core/asyncclient", "sim/engine",
                         "core/fms", "kv/api", "core/lookupcache") == {
            **self.FRAME,
            "core/client:_g_flush": 3, "core/client:_g_flush_server": 3,
            "sim/engine:_step": 3, "sim/engine:_arrive": 2,
            "core/fms:op_setattr": 1,
            "core/fms:_check_owner": 1, "core/lookupcache:op_invalidate": 1,
            "core/lookupcache:apply_fill": 1, "core/lookupcache:_evict_for": 1}
        assert stats.total_calls <= 117


def _warm_stat_stats(system):
    """cProfile stats of one warm ``stat_file`` on the EventEngine: the
    file was created (and flushed) and read twice before, so the parent
    is a d-cache hit and, on LocoFS-A, the file a lookup-cache hit."""
    import cProfile
    import pstats

    fs = make_system(system, 4, engine_kind="event")
    c = fs.client()
    c.mkdir("/d")
    c.create("/d/f")
    if hasattr(c, "flush"):  # LocoFS-A: the create is deferred
        c.flush()
    c.stat_file("/d/f")
    c.stat_file("/d/f")
    prof = cProfile.Profile()
    prof.runcall(c.stat_file, "/d/f")
    return pstats.Stats(prof)


@pytest.mark.usefixtures("quiet_gc")
class TestReadRungWorkCount:
    """One warm file ``stat`` decodes each inode part once and carries the
    fields positionally to the ``StatResult``: exact per-function call
    counts of the client, server, layout and KV frames (generator
    resumes count as calls).  No ``metadata/layout`` frame runs: the
    reply is one joined ``Struct.unpack``."""

    MODULES = ("core/client", "core/asyncclient", "core/fms", "core/lookupcache",
               "metadata/layout", "kv/hashdb", "kv/meter")

    def test_dcache_hit_on_the_fms(self):
        """``locofs-c``: CPython 3.11.7 counts 51 calls in all, against 57
        when ``op_getattr`` ran ``fkey`` / ``_load`` frames and two
        ``FixedLayout.unpack`` dicts, merged, and the client read nine
        keys back out."""
        stats = _warm_stat_stats("locofs-c")
        assert _calls_in(stats, *self.MODULES) == {
            "core/client:_g_stat_file": 2, "core/client:_fms_for": 1,
            "core/fms:op_getattr": 1, "kv/hashdb:get": 2, "kv/meter:charge": 2}
        assert stats.total_calls <= 51

    def test_lookup_cache_hit(self):
        """``locofs-a``: CPython 3.11.7 counts 49 calls in all, against 54
        when the cache node unpacked and merged two dicts (two layout
        frames) for the client to read back by key."""
        stats = _warm_stat_stats("locofs-a")
        assert _calls_in(stats, *self.MODULES) == {
            "core/asyncclient:_g_stat_file": 2, "core/asyncclient:_g_locate": 1,
            "core/client:_fms_for": 1, "core/lookupcache:op_getattr": 1,
            "core/lookupcache:_lookup": 1, "core/lookupcache:_file_key": 1,
            "kv/hashdb:get": 1, "kv/meter:charge": 1}
        assert stats.total_calls <= 49


#: the batched-apply property's namespace: two directories × four names,
#: small enough that creates collide and unlinks / renames find targets
_PROP_DIRS = (5, 9)
_PROP_NAMES = ("a", "b", "c", "d")
_PROP_USER = Credentials(uid=1000, gid=1000)


def _prop_entry(rng, clock):
    """One random tagged ``apply_batch`` entry; creates get distinct
    ctimes (a repeated one is DESIGN gap 10's replay case)."""
    kind = rng.choice(("create", "create", "setattr", "unlink", "unlink_opt",
                       "rename_local"))
    cred = rng.choice((ROOT_CRED, ROOT_CRED, _PROP_USER))
    du, name = rng.choice(_PROP_DIRS), rng.choice(_PROP_NAMES)
    if kind == "create":
        clock[0] += 1.0
        return ("create", du, name, rng.choice((0o600, 0o644)), cred, clock[0], 4096)
    if kind == "setattr":
        return ("setattr", du, name, cred, clock[0], rng.choice((None, 0o640)),
                rng.choice((None, 7)), rng.choice((None, 8)))
    if kind == "rename_local":
        return ("rename_local", du, name, rng.choice(_PROP_DIRS),
                rng.choice(_PROP_NAMES), cred)
    return (kind, du, name, cred)


class TestApplyBatchIsEntryByEntry:
    """``FileMetadataServer.op_apply_batch(entries)`` leaves what applying
    each entry as its own one-entry batch leaves on a twin FMS: the same
    positional results (uuids aside) and the same stored keys and bytes
    (the uuid-ceiling record aside: one reservation per create run
    instead of per create).  All five entry kinds, creates runs of every
    length, conflicts, missing names and non-owner creds."""

    @pytest.mark.parametrize("decoupled", [True, False], ids=["decoupled", "coupled"])
    def test_seeded_batches(self, decoupled):
        import random

        from repro.core.fms import FileMetadataServer

        ceiling = FileMetadataServer._FID_KEY

        def state(fms):
            return sorted((k, v) for k, v in fms.store.items() if k != ceiling)

        def masked(results):
            return [{k: v for k, v in r.items() if k != "uuid"} for r in results]

        for case in range(1000):
            rng = random.Random(case)
            clock = [0.0]
            batched = FileMetadataServer(sid=1, decoupled=decoupled)
            single = FileMetadataServer(sid=1, decoupled=decoupled)
            pre = tuple(_prop_entry(rng, clock) for _ in range(rng.randrange(6)))
            batched.op_apply_batch(pre)
            single.op_apply_batch(pre)
            entries = tuple(_prop_entry(rng, clock) for _ in range(rng.randrange(1, 10)))
            got = batched.op_apply_batch(entries)
            want = [single.op_apply_batch((e,))[0] for e in entries]
            assert masked(got) == masked(want), (case, entries)
            assert state(batched) == state(single), (case, entries)
            assert batched.num_files_fast() == single.num_files_fast() == \
                batched.num_files()

    @pytest.mark.parametrize("decoupled", [True, False], ids=["decoupled", "coupled"])
    @pytest.mark.parametrize("bad", ["", "n" * 0x10000], ids=["empty", "too-long"])
    def test_a_bad_name_fails_alone(self, decoupled, bad):
        """A create whose name the dirent encoding cannot hold is refused
        before anything changes (the fid allocator, the uuid ceiling, the
        entries before it) and reported as ``InvalidArgument``, the error
        a client raises for an over-long name; the rest of the batch
        applies, a create run around the bad name included.  It used to
        raise ``ValueError`` out of ``op_apply_batch`` after the earlier
        entries had applied."""
        from repro.core.fms import FileMetadataServer

        def create(name, t):
            return ("create", 5, name, 0o644, ROOT_CRED, t, 4096)

        fms = FileMetadataServer(sid=1, decoupled=decoupled)
        twin = FileMetadataServer(sid=1, decoupled=decoupled)
        for f in (fms, twin):
            f.op_apply_batch((create("x", 1.0),))
        unlink = ("unlink", 5, "x", ROOT_CRED)
        refused = {"err": "InvalidArgument", "arg": bad}
        got = fms.op_apply_batch((unlink, create(bad, 2.0), create("ok", 3.0)))
        want = twin.op_apply_batch((unlink, create("ok", 3.0)))
        assert got == [want[0], refused, want[1]]
        got = fms.op_apply_batch((create("a", 4.0), create(bad, 5.0), create("b", 6.0)))
        want = twin.op_apply_batch((create("a", 4.0), create("b", 6.0)))
        assert got == [want[0], refused, want[1]]
        assert sorted(fms.store.items()) == sorted(twin.store.items())
        assert fms.alloc._next_fid == twin.alloc._next_fid
        assert fms.num_files_fast() == twin.num_files_fast() == fms.num_files() == 3
        # every entry is a batch record, the refused ones too
        assert fms.counters.get("batch.records") == twin.counters.get("batch.records") + 2
