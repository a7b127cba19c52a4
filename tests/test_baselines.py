"""Baselines: the shared semantics suite across all four systems, plus
system-specific structural behaviour."""

import cProfile
import os
import pstats
import tempfile

import pytest

from repro.baselines import (
    CephFSSystem,
    GlusterSystem,
    IndexFSSystem,
    LustreSystem,
    RawKVSystem,
)
from repro.baselines.placement import (
    GlusterPlacement,
    ParentHashPlacement,
    StripedPlacement,
    SubtreePlacement,
)
from repro.common import pathutil
from repro.common.errors import NotADirectory, PermissionDenied
from repro.common.types import Credentials
from repro.harness import run_throughput

from fs_semantics import FSSemantics


def _num_inodes(server) -> int:
    """Inode records a tree-partitioned metadata server holds."""
    return sum(1 for k, _ in server.store.items() if k.startswith(b"I:"))


def make_system(kind, n=3, **kw):
    if kind == "indexfs":
        return IndexFSSystem(num_metadata_servers=n, **kw)
    if kind == "cephfs":
        return CephFSSystem(num_metadata_servers=n, **kw)
    if kind == "lustre-d1":
        return LustreSystem(num_metadata_servers=n, dne=1, **kw)
    if kind == "lustre-d2":
        return LustreSystem(num_metadata_servers=n, dne=2, **kw)
    if kind == "gluster":
        return GlusterSystem(num_metadata_servers=n, **kw)
    raise ValueError(kind)


ALL_SYSTEMS = ["indexfs", "cephfs", "lustre-d1", "lustre-d2", "gluster"]


@pytest.fixture(params=ALL_SYSTEMS)
def fs_deployment(request):
    sys_ = make_system(request.param)
    yield sys_
    sys_.close()


@pytest.fixture
def fs_client(fs_deployment):
    return fs_deployment.client()


@pytest.fixture
def fs_factory(fs_deployment):
    def make(cred):
        return fs_deployment.client(cred=cred)

    return make


class TestBaselineSemantics(FSSemantics):
    """Run the shared contract over all five baseline configurations."""


class TestRawKV:
    def test_put_get_roundtrip(self):
        sys_ = RawKVSystem()
        c = sys_.client()
        c.put(b"k", b"v")
        assert c.get(b"k") == b"v"
        assert c.get(b"missing") is None

    def test_one_rpc_per_op(self):
        sys_ = RawKVSystem()
        c = sys_.client()
        c.put(b"k", b"v")
        c.get(b"k")
        assert sys_.cluster["kv0"].requests_served == 2

    def test_latency_is_one_rtt_plus_service(self):
        sys_ = RawKVSystem()
        c = sys_.client()
        t0 = sys_.engine.now
        c.get(b"k")
        assert sys_.engine.now - t0 < 1.2 * sys_.cost.rtt_us


class TestStructuralBehaviour:
    def test_gluster_mkdir_touches_every_brick(self):
        sys_ = GlusterSystem(num_metadata_servers=4)
        c = sys_.client()
        before = [sys_.cluster[n].requests_served for n in sys_.server_names]
        c.mkdir("/d")
        after = [sys_.cluster[n].requests_served for n in sys_.server_names]
        assert all(a > b for a, b in zip(after, before))
        sys_.close()

    def test_gluster_create_is_single_brick(self):
        sys_ = GlusterSystem(num_metadata_servers=4)
        c = sys_.client()
        c.mkdir("/d")
        before = sum(sys_.cluster[n].requests_served for n in sys_.server_names)
        c.create("/d/f")  # parent cached; dirs replicated so create is local
        after = sum(sys_.cluster[n].requests_served for n in sys_.server_names)
        assert after - before == 1
        sys_.close()

    def test_cephfs_subtree_locality(self):
        # deep operations inside one subtree hit exactly one MDS
        sys_ = CephFSSystem(num_metadata_servers=4)
        c = sys_.client()
        c.mkdir("/proj")
        c.mkdir("/proj/a")
        c.mkdir("/proj/a/b")
        home = sys_.placement.inode_server("/proj")
        assert sys_.placement.inode_server("/proj/a/b") == home
        sys_.close()

    def test_cephfs_stat_served_from_client_cache(self):
        sys_ = CephFSSystem(num_metadata_servers=2)
        c = sys_.client()
        c.mkdir("/d")
        c.create("/d/f")
        served = sum(sys_.cluster[n].requests_served for n in sys_.server_names)
        st = c.stat_file("/d/f")  # capabilities: attrs cached since create
        assert st.is_file
        assert sum(sys_.cluster[n].requests_served for n in sys_.server_names) == served
        sys_.close()

    def test_lustre_stat_contacts_mds(self):
        sys_ = LustreSystem(num_metadata_servers=2, dne=1)
        c = sys_.client()
        c.mkdir("/d")
        c.create("/d/f")
        served = sum(sys_.cluster[n].requests_served for n in sys_.server_names)
        c.stat_file("/d/f")
        # close-to-open consistency: glimpse lock + getattr, both at the MDS
        assert sum(sys_.cluster[n].requests_served for n in sys_.server_names) == served + 2
        sys_.close()

    def test_lustre_d2_readdir_contacts_every_mds(self):
        sys_ = LustreSystem(num_metadata_servers=4, dne=2)
        c = sys_.client()
        c.mkdir("/d")
        for i in range(12):
            c.create(f"/d/f{i}")
        before = [sys_.cluster[n].requests_served for n in sys_.server_names]
        entries = c.readdir("/d")
        after = [sys_.cluster[n].requests_served for n in sys_.server_names]
        assert len(entries) == 12
        assert all(a == b + 1 for a, b in zip(after, before))
        sys_.close()

    def test_lustre_d2_stripes_files_across_mds(self):
        sys_ = LustreSystem(num_metadata_servers=4, dne=2)
        c = sys_.client()
        c.mkdir("/d")
        for i in range(60):
            c.create(f"/d/f{i:02d}")
        counts = [_num_inodes(s) for s in sys_.servers]
        assert sum(counts) == 62  # root + /d + 60 files
        assert sum(1 for n in counts if n > 0) >= 3
        sys_.close()

    def test_indexfs_children_live_in_parent_partition(self):
        sys_ = IndexFSSystem(num_metadata_servers=4)
        c = sys_.client()
        c.mkdir("/d")
        for i in range(10):
            c.create(f"/d/f{i}")
        home = sys_.placement.dirent_home("/d")
        home_server = sys_.servers[sys_.server_names.index(home)]
        # all ten file inodes are in /d's partition
        assert _num_inodes(home_server) >= 10
        sys_.close()

    def test_indexfs_path_walk_contacts_servers_per_component(self):
        sys_ = IndexFSSystem(num_metadata_servers=4)
        c = sys_.client()
        c.mkdir("/a")
        c.mkdir("/a/b")
        c.mkdir("/a/b/c")
        fresh = sys_.client()  # cold cache
        before = sum(sys_.cluster[n].requests_served for n in sys_.server_names)
        fresh.create("/a/b/c/file")
        after = sum(sys_.cluster[n].requests_served for n in sys_.server_names)
        # cold create: lookups for /, /a, /a/b, /a/b/c plus the create itself
        assert after - before == 5
        sys_.close()

    def test_indexfs_warm_cache_create_is_one_rpc(self):
        sys_ = IndexFSSystem(num_metadata_servers=4)
        c = sys_.client()
        c.mkdir("/a")
        c.create("/a/f0")  # warms the walk
        before = sum(sys_.cluster[n].requests_served for n in sys_.server_names)
        c.create("/a/f1")
        after = sum(sys_.cluster[n].requests_served for n in sys_.server_names)
        assert after - before == 1
        sys_.close()

    def test_baseline_serialization_charged(self):
        # whole-inode values pay (de)serialization on the server meter
        sys_ = LustreSystem(num_metadata_servers=1, dne=1)
        c = sys_.client()
        c.mkdir("/d")
        c.create("/d/f")
        mds = sys_.cluster["mds0"]
        assert mds.meter.count("serialize") > 0
        sys_.close()

    def test_index_metadata_grows_with_file_size(self):
        from repro.baselines.codec import encode_inode

        small = encode_inode({"kind": 1, "mode": 0o100644, "uid": 0, "gid": 0,
                              "uuid": 1, "size": 0, "bsize": 4096})
        big = encode_inode({"kind": 1, "mode": 0o100644, "uid": 0, "gid": 0,
                            "uuid": 1, "size": 1 << 20, "bsize": 4096})
        assert len(big) > len(small)

    def test_multiuser_permissions_cross_system(self):
        for kind in ALL_SYSTEMS:
            sys_ = make_system(kind, n=2)
            root = sys_.client()
            root.mkdir("/home", mode=0o755)
            root.mkdir("/home/alice", mode=0o700)
            root.chown("/home/alice", 100, 100)
            alice = sys_.client(cred=Credentials(100, 100))
            alice.create("/home/alice/secret")
            assert alice.stat_file("/home/alice/secret").st_uid == 100
            sys_.close()


class TestLeanCreatePath:
    """The baseline client's create path: one placement hash, an inline
    component walk, the lock RPC only when the system takes locks."""

    @pytest.mark.parametrize("cls", [ParentHashPlacement, SubtreePlacement,
                                     StripedPlacement, GlusterPlacement])
    def test_entry_servers_is_the_inode_and_dirent_pair(self, cls):
        placement = cls([f"mds{i}" for i in range(7)])
        for path in ("/", "/a", "/b", "/a/x", "/a/b/c", "/q/r/s/t", "/é/ü"):
            parent, name = pathutil.split(path)
            assert placement.entry_servers(path, parent, name) == (
                placement.inode_server(path), placement.dirent_server(parent, name))

    def test_walk_names_the_first_ancestor_without_search_permission(self):
        sys_ = IndexFSSystem(num_metadata_servers=4)
        root = sys_.client()
        for path in ("/a", "/a/b", "/a/b/c"):
            root.mkdir(path, mode=0o700)  # no X for anyone else, at any level
        root.create("/a/f")
        bob = sys_.client(cred=Credentials(500, 500))
        served = lambda: sum(sys_.cluster[n].requests_served  # noqa: E731
                             for n in sys_.server_names)
        before = served()
        with pytest.raises(PermissionDenied) as denied:
            bob.create("/a/b/c/f")
        assert denied.value.path == "/a"
        # the whole chain resolved first: "/", "/a", "/a/b", "/a/b/c"
        assert served() - before == 4
        # a component that is a file fails as NotADirectory, even below a
        # directory the caller may not search
        with pytest.raises(NotADirectory) as notdir:
            bob.create("/a/f/g")
        assert notdir.value.path == "/a/f"
        with pytest.raises(NotADirectory):
            root.create("/a/f/g")
        sys_.close()

    @pytest.mark.parametrize("kind", ["indexfs", "lustre-d1"])
    def test_lock_rpc_only_where_the_system_locks(self, kind):
        sys_ = make_system(kind, n=2)
        c = sys_.client()
        c.mkdir("/a")
        c.create("/a/f0")
        served = lambda: sum(sys_.cluster[n].requests_served  # noqa: E731
                             for n in sys_.server_names)
        before = served()
        c.create("/a/f1")
        c.unlink("/a/f1")
        c.mkdir("/a/d")
        per_op = 2 if kind == "lustre-d1" else 1  # Lustre: LDLM enqueue first
        assert served() - before == 3 * per_op
        sys_.close()

    @pytest.mark.usefixtures("quiet_gc")
    def test_warm_direct_create_exact_call_count(self):
        """One warm IndexFS ``create`` (16 partitions) driven by the
        DirectEngine from a warm lease cache, under cProfile: exact and
        machine-independent.  CPython 3.11.7 counts 72, the profiler's own
        ``disable`` included — with two placement hashes, an ancestors
        list, an empty lock generator and the generic server and LSM paths
        it counted 118."""
        sys_ = IndexFSSystem(num_metadata_servers=16)
        c = sys_.client()
        c.mkdir("/d")
        c.create("/d/w0")
        c.create("/d/w1")
        prof = cProfile.Profile()
        prof.runcall(c.create, "/d/f")
        assert pstats.Stats(prof).total_calls <= 72
        sys_.close()

    def test_touch_wave_leaves_no_lsm_directory(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        result = run_throughput("indexfs", 4, op="touch", items_per_client=20,
                                num_clients=8)
        assert result.total_ops == 160
        assert os.listdir(tmp_path) == []
