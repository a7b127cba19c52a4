"""Crash-recovery and failure-injection tests for the metadata servers.

A LocoFS built with ``data_dir`` write-ahead-logs every metadata mutation;
"crashing" is modeled by abandoning the deployment object and constructing
a fresh one over the same directory.  Recovery must restore the namespace,
the DMS's in-memory mirror, and the uuid allocators (no reuse), and the
recovered state must pass fsck.
"""

import pytest

from repro.common.config import CacheConfig, ClusterConfig
from repro.common.errors import NoEntry
from repro.core.dms import DirectoryMetadataServer
from repro.core.fms import FileMetadataServer
from repro.core.fs import LocoFS
from repro.core.fsck import check
from repro.common.types import ROOT_CRED


def make_fs(tmp_path, n=2):
    return LocoFS(ClusterConfig(num_metadata_servers=n), data_dir=str(tmp_path / "meta"))


class TestLocoFSRestart:
    def test_namespace_survives_restart(self, tmp_path):
        fs = make_fs(tmp_path)
        c = fs.client()
        c.mkdir("/proj")
        c.mkdir("/proj/a")
        for i in range(10):
            c.create(f"/proj/f{i}")
        c.chmod("/proj/f0", 0o600)
        fs.close()

        fs2 = make_fs(tmp_path)
        c2 = fs2.client()
        assert c2.stat_dir("/proj/a").is_dir
        assert c2.stat_file("/proj/f3").is_file
        assert c2.stat_file("/proj/f0").st_mode & 0o7777 == 0o600
        assert [e.name for e in c2.readdir("/proj")] == (
            ["a"] + [f"f{i}" for i in range(10)]
        )

    def test_recovered_state_passes_fsck(self, tmp_path):
        fs = make_fs(tmp_path, n=3)
        c = fs.client()
        c.mkdir("/a")
        c.mkdir("/a/b")
        for i in range(20):
            c.create(f"/a/f{i}")
        c.rename("/a/f0", "/a/g0")
        c.rename("/a", "/z")
        fs.close()
        fs2 = make_fs(tmp_path, n=3)
        report = check(fs2)
        assert report.clean, report.errors
        assert report.files == 20

    def test_deletions_survive_restart(self, tmp_path):
        fs = make_fs(tmp_path)
        c = fs.client()
        c.mkdir("/d")
        c.create("/d/doomed")
        c.unlink("/d/doomed")
        c.rmdir("/d")
        fs.close()
        fs2 = make_fs(tmp_path)
        c2 = fs2.client()
        with pytest.raises(NoEntry):
            c2.stat_dir("/d")
        with pytest.raises(NoEntry):
            c2.stat_file("/d/doomed")

    def test_no_uuid_reuse_after_restart(self, tmp_path):
        fs = make_fs(tmp_path)
        c = fs.client()
        c.mkdir("/d")
        uuids = set()
        for i in range(5):
            c.create(f"/d/f{i}")
            uuids.add(c.stat_file(f"/d/f{i}").st_uuid)
        fs.close()
        fs2 = make_fs(tmp_path)
        c2 = fs2.client()
        for i in range(5, 10):
            c2.create(f"/d/f{i}")
            uuids.add(c2.stat_file(f"/d/f{i}").st_uuid)
        assert len(uuids) == 10  # every uuid distinct across the crash

    def test_restart_then_continue_operating(self, tmp_path):
        fs = make_fs(tmp_path)
        c = fs.client()
        c.mkdir("/d")
        fs.close()
        fs2 = make_fs(tmp_path)
        c2 = fs2.client()
        c2.mkdir("/d/sub")  # parent resolution + ACL from recovered mirror
        c2.create("/d/sub/file")
        assert check(fs2).clean

    def test_without_data_dir_nothing_persists(self, tmp_path):
        fs = LocoFS(ClusterConfig(num_metadata_servers=1))
        fs.client().mkdir("/ephemeral")
        fs.close()
        fs2 = LocoFS(ClusterConfig(num_metadata_servers=1))
        with pytest.raises(NoEntry):
            fs2.client().stat_dir("/ephemeral")


class TestServerLevelRecovery:
    def test_dms_mirror_rebuilt(self, tmp_path):
        wal = str(tmp_path / "dms.wal")
        dms = DirectoryMetadataServer(wal_path=wal)
        dms.op_mkdir("/a", 0o700, ROOT_CRED, 1.0)
        dms.op_mkdir("/a/b", 0o755, ROOT_CRED, 2.0)
        dms.store.close()
        dms2 = DirectoryMetadataServer(wal_path=wal)
        assert set(dms2._meta) == {"/", "/a", "/a/b"}
        mode, uid, gid, uuid = dms2._meta["/a"]
        assert mode & 0o7777 == 0o700
        assert dms2.num_directories() == 3

    def test_dms_hash_backend_recovery(self, tmp_path):
        wal = str(tmp_path / "dms.wal")
        dms = DirectoryMetadataServer(backend="hash", wal_path=wal)
        dms.op_mkdir("/x", 0o755, ROOT_CRED, 0.0)
        dms.store.close()
        dms2 = DirectoryMetadataServer(backend="hash", wal_path=wal)
        assert dms2.op_exists("/x")

    def test_fms_allocator_skips_reserved_range(self, tmp_path):
        wal = str(tmp_path / "fms.wal")
        fms = FileMetadataServer(sid=1, wal_path=wal)
        u1 = fms.op_create(0, "f1", 0o644, ROOT_CRED, 0.0)
        fms.store.close()
        fms2 = FileMetadataServer(sid=1, wal_path=wal)
        u2 = fms2.op_create(0, "f2", 0o644, ROOT_CRED, 0.0)
        assert u2 > u1

    def test_fms_files_survive(self, tmp_path):
        wal = str(tmp_path / "fms.wal")
        fms = FileMetadataServer(sid=1, wal_path=wal)
        fms.op_create(7, "data.bin", 0o644, ROOT_CRED, 0.0)
        fms.op_truncate(7, "data.bin", 4242, 1.0)
        fms.store.close()
        fms2 = FileMetadataServer(sid=1, wal_path=wal)
        attrs = fms2.op_getattr(7, "data.bin")
        # positional reply: (ctime, mode, uid, gid, mtime, atime, size, ...)
        assert attrs[6] == 4242

    def test_torn_wal_tail_recovers_prefix(self, tmp_path):
        wal = str(tmp_path / "dms.wal")
        dms = DirectoryMetadataServer(wal_path=wal)
        dms.op_mkdir("/kept", 0o755, ROOT_CRED, 0.0)
        dms.store.close()
        # simulate a torn write at the tail of the log
        with open(wal, "ab") as fh:
            fh.write(b"\x30\x00\x00\x00garbage-partial-record")
        dms2 = DirectoryMetadataServer(wal_path=wal)
        assert dms2.op_exists("/kept")
