"""LocoFS: shared semantics suite + LocoFS-specific behaviour."""

import cProfile
import pstats

import pytest

from repro.common.config import (
    BatchConfig,
    CacheConfig,
    ClusterConfig,
    DirectoryConfig,
    LookupCacheConfig,
)
from repro.common.errors import Exists, FSError, NoEntry
from repro.common.types import Credentials
from repro.core import fsck
from repro.core.fs import LocoFS
from repro.harness.registry import make_system
from repro.obs import Tracer
from repro.sim.costmodel import CostModel
from repro.sim.rpc import Parallel, Rpc

from fs_semantics import FSSemantics
from ring_names import name_placed


def _repl():
    return DirectoryConfig(partitions=2, replication=3)


def _wb():
    return BatchConfig(enabled=True)


#: every LocoFS shape the shared contract runs over — one line each, since
#: a shape is configuration (directory routing x update policy)
_SHAPES = {
    "cached-4fms": lambda: ClusterConfig(num_metadata_servers=4),
    "nocache-2fms": lambda: ClusterConfig(
        num_metadata_servers=2, cache=CacheConfig(enabled=False)),
    "coupled-2fms": lambda: ClusterConfig(
        num_metadata_servers=2, decoupled_file_metadata=False),
    "hashdms-2fms": lambda: ClusterConfig(num_metadata_servers=2, dms_backend="hash"),
    "replicated-2x3": lambda: ClusterConfig(
        num_metadata_servers=2, cache=CacheConfig(enabled=False), directory=_repl()),
    "writebehind": lambda: ClusterConfig(num_metadata_servers=2, batch=_wb()),
    "writebehind-partitioned": lambda: ClusterConfig(
        num_metadata_servers=2, batch=_wb(), directory=DirectoryConfig(partitions=2)),
    "writebehind-replicated": lambda: ClusterConfig(
        num_metadata_servers=2, batch=_wb(), directory=_repl()),
    "async": lambda: ClusterConfig(
        num_metadata_servers=2, batch=BatchConfig(enabled=True, all_ops=True),
        lookup_cache=LookupCacheConfig(enabled=True)),
}

_UNFLUSHED = ("a second client cannot see the first one's unflushed {} "
              "(write-behind visibility is per client until flush)")
_DEFERRED_ERR = ("the deferred {} is acknowledged at once; its NoEntry "
                 "surfaces at the flush boundary, not at the call")

#: contract cells a shape cannot meet, each with its reason — listed and
#: strict, so a cell that starts passing is noticed
_XFAIL = {
    **{(shape, "test_non_owner_cannot_chmod"): _UNFLUSHED.format("create")
       for shape in ("writebehind", "writebehind-partitioned",
                     "writebehind-replicated", "async")},
    ("async", "test_permission_denied_on_locked_dir"): _UNFLUSHED.format("mkdir"),
    ("async", "test_other_user_can_use_open_dir"): _UNFLUSHED.format("mkdir"),
    ("async", "test_unlink_missing_fails"): _DEFERRED_ERR.format("unlink"),
    ("async", "test_rename_missing_fails"): _DEFERRED_ERR.format("rename"),
}


@pytest.fixture(params=list(_SHAPES))
def fs_deployment(request):
    reason = _XFAIL.get((request.param, request.node.originalname))
    if reason is not None:
        request.applymarker(pytest.mark.xfail(strict=True, reason=reason))
    return LocoFS(_SHAPES[request.param]())


@pytest.fixture
def fs_client(fs_deployment):
    return fs_deployment.client()


@pytest.fixture
def fs_factory(fs_deployment):
    def make(cred):
        return fs_deployment.client(cred=cred)

    return make


class TestLocoFSSemantics(FSSemantics):
    """Run the shared contract over every LocoFS shape in ``_SHAPES``."""


class TestLocoFSSpecific:
    def test_flattened_tree_file_count_per_fms(self):
        # files distribute across FMS servers via consistent hashing
        fs = LocoFS(ClusterConfig(num_metadata_servers=4))
        c = fs.client()
        c.mkdir("/d")
        for i in range(200):
            c.create(f"/d/f{i}")
        counts = [s.num_files() for s in fs.fms]
        assert sum(counts) == 200
        assert all(n > 0 for n in counts), "hashing should spread files over all FMS"

    def test_file_counts_agree_and_charge_no_meter(self):
        # introspection, not a simulated operation: after a mixed run the
        # store scan and the maintained counters agree, and neither charges
        # an FMS meter (the scan once charged a scan_record per record)
        fs = LocoFS(ClusterConfig(num_metadata_servers=4))
        c = fs.client()
        c.mkdir("/d")
        c.mkdir("/e")
        for i in range(40):
            c.create(f"/d/f{i}")
        for i in range(0, 40, 3):
            c.unlink(f"/d/f{i}")
        for i in range(1, 40, 3):
            c.rename(f"/d/f{i}", f"/e/g{i}")
        c.rename("/e", "/e2")
        meters = [fs.cluster[n].meter for n in fs.fms_names]
        before = [(m.total_us, dict(m.op_counts)) for m in meters]
        assert [s.num_files() for s in fs.fms] == [s.num_files_fast() for s in fs.fms]
        assert fs.total_files() == fs.total_files_fast() == 26
        assert [(m.total_us, dict(m.op_counts)) for m in meters] == before

    def test_create_with_warm_cache_is_single_rpc(self):
        fs = LocoFS(ClusterConfig(num_metadata_servers=1))
        c = fs.client()
        c.mkdir("/d")  # also warms the cache with /d
        served_before = fs.cluster["dms"].requests_served
        for i in range(10):
            c.create(f"/d/f{i}")
        # the DMS was never contacted: parent resolution came from the cache
        assert fs.cluster["dms"].requests_served == served_before
        assert c.cache_stats["hits"] >= 10

    def test_nocache_contacts_dms_every_create(self):
        fs = LocoFS(ClusterConfig(num_metadata_servers=1, cache=CacheConfig(enabled=False)))
        c = fs.client()
        c.mkdir("/d")
        before = fs.cluster["dms"].requests_served
        for i in range(10):
            c.create(f"/d/f{i}")
        assert fs.cluster["dms"].requests_served == before + 10

    def test_lease_expiry_forces_dms_lookup(self):
        fs = LocoFS(ClusterConfig(num_metadata_servers=1))
        c = fs.client()
        c.mkdir("/d")
        c.create("/d/one")  # cache hit
        # advance the virtual clock past the 30 s lease
        fs.engine.now += 31 * 1_000_000
        before = fs.cluster["dms"].requests_served
        c.create("/d/two")
        assert fs.cluster["dms"].requests_served == before + 1

    def test_dir_uuid_stable_across_rename(self):
        fs = LocoFS(ClusterConfig(num_metadata_servers=2))
        c = fs.client()
        c.mkdir("/a")
        u1 = c.stat_dir("/a").st_uuid
        c.create("/a/f")
        c.rename("/a", "/b")
        assert c.stat_dir("/b").st_uuid == u1
        # the file is still reachable: its FMS key (dir uuid + name) is unchanged
        assert c.stat_file("/b/f").is_file

    def test_file_uuid_stable_across_rename(self):
        fs = LocoFS(ClusterConfig(num_metadata_servers=4))
        c = fs.client()
        c.create("/f")
        c.write("/f", 0, b"D" * 10000)
        u1 = c.stat_file("/f").st_uuid
        blocks_before = sum(s.num_blocks() for s in fs.object_servers)
        c.rename("/f", "/g")
        assert c.stat_file("/g").st_uuid == u1
        # no data blocks were relocated or rewritten
        assert sum(s.num_blocks() for s in fs.object_servers) == blocks_before

    def test_d_rename_moves_only_directories(self):
        fs = LocoFS(ClusterConfig(num_metadata_servers=2))
        c = fs.client()
        c.mkdir("/top")
        for i in range(5):
            c.mkdir(f"/top/sub{i}")
            c.create(f"/top/sub{i}/file")
        moved = fs.dms.op_rename("/top", "/renamed", c.cred)
        assert moved == 5  # only the 5 sub-directories relocated
        assert c.stat_file("/renamed/sub3/file").is_file

    def test_unlink_removes_data_blocks(self):
        fs = LocoFS(ClusterConfig())
        c = fs.client()
        c.create("/f")
        c.write("/f", 0, b"x" * 20000)
        assert sum(s.num_blocks() for s in fs.object_servers) > 0
        c.unlink("/f")
        assert sum(s.num_blocks() for s in fs.object_servers) == 0

    def test_mkdir_latency_close_to_one_rtt(self):
        # paper §4.2.1: mkdir ≈ 1.1x RTT — a single DMS round trip
        fs = LocoFS(ClusterConfig(num_metadata_servers=1), cost=CostModel())
        c = fs.client()
        t0 = fs.engine.now
        c.mkdir("/d")
        latency = fs.engine.now - t0
        rtt = fs.cost.rtt_us
        assert rtt <= latency <= 1.5 * rtt

    def test_touch_cached_is_about_one_rtt(self):
        fs = LocoFS(ClusterConfig(num_metadata_servers=1))
        c = fs.client()
        c.mkdir("/d")
        t0 = fs.engine.now
        c.create("/d/f")
        latency = fs.engine.now - t0
        # one FMS RPC (plus a connection switch from the DMS socket)
        assert latency <= 2.5 * fs.cost.rtt_us

    def test_rmdir_contacts_every_fms(self):
        fs = LocoFS(ClusterConfig(num_metadata_servers=4))
        c = fs.client()
        c.mkdir("/d")
        before = [fs.cluster[n].requests_served for n in fs.fms_names]
        c.rmdir("/d")
        after = [fs.cluster[n].requests_served for n in fs.fms_names]
        assert all(a == b + 1 for a, b in zip(after, before))

    def test_decoupled_access_part_size(self):
        # the access part value is tiny (20 bytes: ctime+mode+uid+gid)
        from repro.metadata.layout import FILE_ACCESS

        assert FILE_ACCESS.total_size == 20

    def test_touch_tracking_matches_table1(self):
        fs = LocoFS(ClusterConfig(num_metadata_servers=1), track_touches=True)
        c = fs.client()
        c.mkdir("/d")
        c.create("/d/f")
        c.chmod("/d/f", 0o600)
        c.truncate("/d/f", 10)
        c.write("/d/f", 0, b"abc")
        c.read("/d/f", 0, 3)
        touches = fs.fms[0].touches
        assert touches["create"] == {"access", "dirent"}
        assert touches["chmod"] == {"access"}
        assert touches["truncate"] == {"content"}
        assert touches["write"] == {"content"}
        assert touches["read"] == {"content"}

    def test_event_engine_functional_parity(self):
        fs = LocoFS(ClusterConfig(num_metadata_servers=2), engine_kind="event")
        c = fs.client()
        c.mkdir("/d")
        c.create("/d/f")
        c.write("/d/f", 0, b"hello")
        assert c.read("/d/f", 0, 5) == b"hello"
        with pytest.raises(NoEntry):
            c.stat_file("/d/ghost")

    def test_multiple_clients_independent_caches(self):
        fs = LocoFS(ClusterConfig(num_metadata_servers=1))
        a = fs.client()
        b = fs.client(cred=Credentials(uid=7, gid=7))
        a.mkdir("/shared", mode=0o777)
        b.create("/shared/from-b")
        assert a.stat_file("/shared/from-b").st_uid == 7
        assert a.cache_stats["entries"] >= 1
        assert b.cache_stats["entries"] >= 1

    def test_big_directory_teardown_keeps_virtual_time(self):
        """2 000 files + 2 subdirs in one directory, removed out of order.

        Dirent removal is a byte splice whose output equals re-packing the
        survivors, so every KV size and therefore the virtual clock must
        stay exactly where the decode/re-encode implementation left it.
        """
        n = 2000
        fs = make_system("locofs-nc", 4, engine_kind="direct")
        c = fs.client()
        c.mkdir("/big")
        c.mkdir("/big/sub0")
        c.mkdir("/big/sub1")
        for i in range(n):
            c.create(f"/big/f{i:04d}")
        before = [e.name for e in c.readdir("/big")]
        assert len(before) == n + 2
        first_wave = {f"f{i:04d}" for i in range(0, n, 3)}
        for name in sorted(first_wave):
            c.unlink(f"/big/{name}")
        assert [e.name for e in c.readdir("/big")] == [
            name for name in before if name not in first_wave]
        assert fsck.check(fs).clean
        for i in range(n):
            if i % 3:
                c.unlink(f"/big/f{i:04d}")
        c.rmdir("/big/sub1")
        c.rmdir("/big/sub0")
        assert c.readdir("/big") == []
        c.rmdir("/big")
        assert fsck.check(fs).clean
        # measured at the commit before the byte-level dirent plane, then
        # re-measured when the rings went from 128 to 512 virtual nodes per
        # server (2091605.654871739 before: the files sit on other FMSes)
        # and when a dirent append stopped charging the list it grows
        # (2091655.8308717404 before)
        assert fs.engine.now == 2027593.246871774


class TestDeploymentBuilder:
    """One builder: what varies is configuration, and a configuration
    that contradicts itself is refused instead of silently half-built."""

    @pytest.mark.parametrize("overrides, fields", [
        ({"lookup_cache": LookupCacheConfig(enabled=True)},
         ("lookup_cache.enabled", "batch.all_ops")),
        ({"batch": BatchConfig(all_ops=True)}, ("batch.all_ops", "batch.enabled")),
        ({"batch": BatchConfig(enabled=True, all_ops=True),
          "directory": DirectoryConfig(partitions=2)},
         ("batch.all_ops", "directory.partitions")),
        ({"directory": DirectoryConfig(replication=3)},
         ("directory.replication", "directory.partitions")),
    ], ids=["cache-without-async", "all_ops-without-batch",
            "async-over-partitions", "replicated-single-dms"])
    def test_contradictory_config_rejected(self, overrides, fields):
        with pytest.raises(ValueError) as err:
            LocoFS(ClusterConfig(**overrides))
        for field in fields:
            assert field in str(err.value)

    #: every synchronous shape — the ones that share LocoClient._g_setattr
    #: (locofs-a keeps its own order: the strict xfail in
    #: test_differential.py::test_writebehind_kind_ambiguous_chmod)
    @pytest.mark.parametrize("config", [
        pytest.param(_SHAPES[name], id=name)
        for name in ("cached-4fms", "nocache-2fms", "coupled-2fms", "replicated-2x3",
                     "writebehind", "writebehind-replicated")
    ] + [pytest.param(lambda: ClusterConfig(
        num_metadata_servers=2, directory=DirectoryConfig(partitions=2)),
        id="partitioned")])
    def test_kind_ambiguous_setattr_resolves_file_first(self, config):
        """ROADMAP 1(a): with ``strict_collisions`` off ``/a`` can be a
        directory *and* a file; chmod/chown must pick the file on every
        shape, and only fall back to the directory on ``NoEntry``."""
        fs = LocoFS(config())
        assert not fs.config.strict_collisions
        c = fs.client()
        c.mkdir("/a")
        c.create("/a")
        c.chmod("/a", 0o600)
        c.chown("/a", 1, 2)
        c.mkdir("/d")
        c.chmod("/d", 0o700)  # no such file: the directory takes it
        c.chmod("/", 0o711)
        with pytest.raises(NoEntry):
            c.chmod("/missing", 0o600)
        if hasattr(c, "flush"):
            c.flush()
        fresh = fs.client()  # no lease cache to answer for the servers
        d, f = fresh.stat_dir("/a"), fresh.stat_file("/a")
        assert (d.st_mode, d.st_uid, d.st_gid) == (0o40755, 0, 0)
        assert (f.st_mode, f.st_uid, f.st_gid) == (0o100600, 1, 2)
        assert fresh.stat_dir("/d").st_mode == 0o40700
        assert fresh.stat_dir("/").st_mode == 0o40711


def _describe(cmd):
    """A yielded engine command as comparable data."""
    if isinstance(cmd, Rpc):
        return ("Rpc", cmd.server, cmd.method, cmd.args, cmd.kwargs)
    if isinstance(cmd, Parallel):
        return ("Parallel", [_describe(rpc) for rpc in cmd.rpcs])
    return (type(cmd).__name__, getattr(cmd, "name", None), getattr(cmd, "args", None))


def _taped(gen, tape: list):
    """Drive ``gen`` for an engine, appending every command it yields."""
    value = exc = None
    while True:
        try:
            cmd = gen.throw(exc) if exc is not None else gen.send(value)
        except StopIteration as stop:
            return stop.value
        tape.append(_describe(cmd))
        value = exc = None
        try:
            value = yield cmd
        except FSError as e:
            exc = e


#: every op whose directory resolution is inlined, on each path it takes:
#: a hit and a miss, the directory fallbacks of chmod / access, lookup
#: errors, and a path that only normalizes to its directory
_INLINE_SCRIPT = [
    ("mkdir", "/d"), ("mkdir", "/d/m"),
    ("create", "/d/f"), ("create", "/d/g"), ("stat_file", "/d/f"), ("open", "/d/g", 4),
    ("stat_dir", "/d/m"), ("stat_dir", "/d/m/"), ("stat_dir", "/"),
    ("chmod", "/d/f", 0o600), ("chown", "/d/f", 7, 8), ("chmod", "/d/m", 0o700),
    ("access", "/d/f", 4), ("access", "/d/m", 2), ("truncate", "/d/f", 4096),
    ("stat_file", "/d/missing"), ("unlink", "/nodir/f"), ("truncate", "/d/nope", 1),
    ("open", "/d/nope", 4), ("open", "/nodir/f", 4),
    ("stat_dir", "/d/nope"), ("rmdir", "/d/nope"),
    ("unlink", "/d/f"), ("unlink", "/d/g"), ("rmdir", "/d/m"),
]


class TestInlineDirectoryResolution:
    """The single-RPC file ops resolve their directory inline (no
    ``_g_dir`` frame) unless Marks must flow; forced off, ``_g_dir`` runs.
    Both must yield the same commands and leave the same state."""

    @staticmethod
    def _script(system: str, traced: bool, inline: bool):
        fs = make_system(system, 2)
        if traced:
            fs.engine.attach_observability(tracer=Tracer())
        client = fs.client()
        assert client._dir_inline
        client._dir_inline = inline
        tape, outcomes = [], []
        for op, *args in _INLINE_SCRIPT:
            try:
                outcomes.append(fs.engine.run(_taped(client.op_generator(op, *args), tape)))
            except FSError as e:
                outcomes.append(type(e).__name__)
        return (tape, outcomes, fs.engine.now, fs.engine._client.rpcs_issued,
                client.cache_stats)

    @pytest.mark.parametrize("traced", [False, True], ids=["bare", "traced"])
    @pytest.mark.parametrize("system", ["locofs-nc", "locofs-c", "locofs-b"])
    def test_same_commands_with_the_inline_path_forced_off(self, system, traced):
        inline = self._script(system, traced, inline=True)
        assert inline == self._script(system, traced, inline=False)
        looked_up = {c[3][0] for c in inline[0] if c[:3] == ("Rpc", "dms", "lookup")}
        assert looked_up and "/d/m/" not in looked_up  # always normalized

    @pytest.mark.usefixtures("quiet_gc")
    def test_uncached_stat_file_exact_call_count(self):
        """One warm ``stat_file`` on ``locofs-nc`` (no lease cache, the
        DirectEngine), under cProfile.  CPython 3.11.7 counts 60, the
        profiler's own ``disable`` included: the parent resolves inline
        (no ``_g_dir`` frame), the engine serves each request in one
        ``_serve`` frame, and ``op_getattr`` decodes both parts with one
        ``unpack`` into the tuple the client reads positionally."""
        fs = make_system("locofs-nc", 4)
        client = fs.client()
        client.mkdir("/d")
        client.create("/d/f")
        client.stat_file("/d/f")  # warm: memos, placement, meter keys
        prof = cProfile.Profile()
        prof.runcall(client.stat_file, "/d/f")
        assert pstats.Stats(prof).total_calls <= 60


#: (system, op, extra args) for every op that reads a file by path, plus
#: a rename to a destination on the source's FMS (``rename-local``, which
#: LocoFS-A defers) and on the other FMS (``rename-cross``, synchronous)
_PATH_ERROR_SYSTEMS = ("locofs-c", "locofs-nc", "locofs-b", "locofs-a", "locofs-r")
_MISSING_FILE_CASES = [
    pytest.param(system, op, args, id=f"{system}-{op}")
    for system in _PATH_ERROR_SYSTEMS
    for op, args in (("stat_file", ()), ("stat", ()), ("stat_dir", ()), ("access", (4,)),
                     ("open", (4,)), ("unlink", ()), ("truncate", (5,)),
                     ("rename-local", ()), ("rename-cross", ()))
]


def _flush(client) -> None:
    """Drain a write-behind client's queues (a deferred op's error
    surfaces here); a synchronous client has nothing to drain."""
    flush = getattr(client, "flush", None)
    if flush is not None:
        flush()


def _rename_target(client, same_fms: bool) -> str:
    """A destination in ``/d`` whose FMS is (or is not) ``/d/x``'s."""
    return "/d/" + name_placed(client.ring, client.stat_dir("/d").st_uuid, "x", same_fms)


class TestMissingFileErrors:
    """A missing file's ``NoEntry`` names the caller's path, as IndexFS's
    and the directory fallbacks' already did.  It used to carry the FMS's
    empty message (``stat_file`` / ``open`` / ``unlink`` / ``rename``),
    the bare name (``truncate``), on LocoFS-A the still-queued parent
    (the DMS's ACL walk stops at a directory whose ``mkdir`` this client
    has not flushed, which exists for this client), and for LocoFS-A's
    deferred ``unlink`` / local ``rename`` the server's rebuilt message
    (``NoEntry("NoEntry: NoEntry: ")``) at the flush."""

    @pytest.mark.parametrize("system, op, args", _MISSING_FILE_CASES)
    def test_names_the_path(self, system, op, args):
        fs = make_system(system, 2)
        client = fs.client()
        client.mkdir("/d")  # on LocoFS-A still queued when the read runs
        if op.startswith("rename"):
            op, args = "rename", (_rename_target(client, op == "rename-local"),)
        with pytest.raises(NoEntry) as err:
            getattr(client, op)("/d/x", *args)
            _flush(client)
        assert err.value.path == "/d/x"

    @pytest.mark.parametrize("system", _PATH_ERROR_SYSTEMS)
    def test_duplicate_create_names_the_path(self, system):
        """The FMS names the file by its bare name (``Exists("f")``)."""
        fs = make_system(system, 2)
        client = fs.client()
        client.mkdir("/d")
        client.create("/d/f")
        _flush(client)  # durable, so the duplicate is found server-side
        with pytest.raises(Exists) as err:
            client.create("/d/f")
            _flush(client)
        assert err.value.path == "/d/f"


#: every LocoFS row of the registry
_LOCOFS_ROWS = ("locofs-c", "locofs-nc", "locofs-cf", "locofs-df", "locofs-b",
                "locofs-a", "locofs-r")


@pytest.mark.parametrize("engine_kind", ["direct", "event"])
@pytest.mark.parametrize("system", _LOCOFS_ROWS)
def test_root_setattr_reaches_the_callers_cached_root(system, engine_kind):
    """DESIGN gap 4: after ``chmod("/")`` / ``chown("/")`` the caller reads
    what a fresh client reads.  The caller's cached root d-inode takes the
    new fields, so the read after it sends no request at all on a row
    with the lease cache."""
    fs = make_system(system, 2, engine_kind=engine_kind)
    client = fs.client()
    client.stat_dir("/")  # the root in the lease cache, where there is one
    client.chmod("/", 0o700)
    client.chown("/", 5, 6)
    _flush(client)
    before = {n.name: n.requests_served for n in fs.cluster.nodes()}
    mine = client.stat_dir("/")
    sent = sum(n.requests_served - before[n.name] for n in fs.cluster.nodes())
    assert (mine.st_mode, mine.st_uid, mine.st_gid) == (0o40700, 5, 6)
    assert mine == fs.client().stat_dir("/")
    assert sent == (0 if client.cache_enabled else 1)
