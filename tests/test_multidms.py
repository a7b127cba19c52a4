"""Multi-DMS extension: shared semantics suite + the trade-off behaviour."""

import pytest

from repro.common.config import ClusterConfig, DirectoryConfig
from repro.common.types import Credentials
from repro.core.fs import LocoFS

from fs_semantics import FSSemantics


def _mdms(shards, num_metadata_servers, **kw):
    return LocoFS(ClusterConfig(num_metadata_servers=num_metadata_servers,
                                directory=DirectoryConfig(partitions=shards)), **kw)


@pytest.fixture(params=[1, 2, 4])
def fs_deployment(request):
    return _mdms(request.param, 3)


@pytest.fixture
def fs_client(fs_deployment):
    return fs_deployment.client()


@pytest.fixture
def fs_factory(fs_deployment):
    def make(cred):
        return fs_deployment.client(cred=cred)

    return make


class TestMultiDMSSemantics(FSSemantics):
    """The full FS contract must hold at 1, 2 and 4 directory shards."""


class TestSharding:
    def test_directories_spread_across_shards(self):
        fs = _mdms(4, 2)
        c = fs.client()
        for i in range(40):
            c.mkdir(f"/d{i:02d}")
        counts = [s.num_directories() for s in fs.dms_servers.values()]
        assert sum(counts) == 41  # root + 40
        assert sum(1 for n in counts if n > 0) >= 3

    def test_mkdir_throughput_scales_with_shards(self):
        from repro.sim.rpc import LocalCharge

        def run(n_shards):
            fs = _mdms(n_shards, 1, engine_kind="event")
            engine = fs.engine
            done = [0]

            def client_loop(cid):
                client = fs.client()
                for i in range(20):
                    yield LocalCharge(fs.cost.client_overhead_us)
                    yield from client.op_generator("mkdir", f"/c{cid}x{i}")
                    done[0] += 1

            t0 = engine.now
            for cid in range(40):
                engine.spawn(client_loop(cid), client=engine.new_client())
            engine.sim.run()
            return done[0] / (engine.now - t0)

        assert run(4) > 1.5 * run(1)

    def test_cold_walk_pays_per_level_round_trips(self):
        # the cost the single-DMS design avoids: resolving /a/b/c with a
        # cold cache contacts a shard per level
        fs = _mdms(4, 1)
        warm = fs.client()
        warm.mkdir("/a")
        warm.mkdir("/a/b")
        warm.mkdir("/a/b/c")
        cold = fs.client()
        served_before = sum(fs.cluster[n].requests_served for n in fs.dms_names)
        cold.stat_dir("/a/b/c")
        served_after = sum(fs.cluster[n].requests_served for n in fs.dms_names)
        assert served_after - served_before == 4  # /, /a, /a/b, /a/b/c

    def test_single_dms_walk_is_one_rpc(self):
        # contrast: the paper's single DMS resolves any depth in one RPC
        from repro.common.config import CacheConfig

        fs = LocoFS(ClusterConfig(num_metadata_servers=1,
                                  cache=CacheConfig(enabled=False)))
        c = fs.client()
        c.mkdir("/a")
        c.mkdir("/a/b")
        c.mkdir("/a/b/c")
        before = fs.cluster["dms"].requests_served
        c.stat_dir("/a/b/c")
        assert fs.cluster["dms"].requests_served == before + 1

    def test_rename_rehashes_directory_records(self):
        fs = _mdms(3, 2)
        c = fs.client()
        c.mkdir("/top")
        for i in range(12):
            c.mkdir(f"/top/s{i}")
            c.create(f"/top/s{i}/file")
        c.rename("/top", "/moved")
        # everything still reachable, files untouched (uuid-keyed)
        for i in range(12):
            assert c.stat_file(f"/moved/s{i}/file").is_file
        assert fs.total_directories() == 14  # root + moved + 12

    def test_rmdir_checks_all_shards(self):
        fs = _mdms(3, 2)
        c = fs.client()
        c.mkdir("/p")
        c.mkdir("/p/child")
        from repro.common.errors import NotEmpty

        with pytest.raises(NotEmpty):
            c.rmdir("/p")
        c.rmdir("/p/child")
        c.rmdir("/p")

    def test_uuid_uniqueness_across_shards(self):
        fs = _mdms(4, 2)
        c = fs.client()
        uuids = set()
        for i in range(30):
            c.mkdir(f"/u{i}")
            uuids.add(c.stat_dir(f"/u{i}").st_uuid)
        assert len(uuids) == 30

    def test_permissions_enforced_on_client_walk(self):
        fs = _mdms(2, 2)
        root = fs.client()
        root.mkdir("/locked", mode=0o700)
        root.mkdir("/locked/inner")
        from repro.common.errors import PermissionDenied

        other = fs.client(cred=Credentials(5, 5))
        with pytest.raises(PermissionDenied):
            other.stat_dir("/locked/inner")
