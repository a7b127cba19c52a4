"""Shared file-system semantics suite.

Every system in the repository (LocoFS and all baselines) must pass these
tests.  A system's test module subclasses :class:`FSSemantics` and
provides a ``fs_client`` pytest fixture returning a fresh client on a
fresh deployment.
"""

import pytest

from repro.common.errors import (
    Exists,
    InvalidArgument,
    NoEntry,
    NotEmpty,
    PermissionDenied,
)
from repro.common.types import Credentials


class FSSemantics:
    """POSIX-ish behaviour contract, system-agnostic."""

    # -- directories -----------------------------------------------------------
    def test_mkdir_and_stat(self, fs_client):
        fs_client.mkdir("/a")
        st = fs_client.stat_dir("/a")
        assert st.is_dir

    def test_mkdir_nested(self, fs_client):
        fs_client.mkdir("/a")
        fs_client.mkdir("/a/b")
        fs_client.mkdir("/a/b/c")
        assert fs_client.stat_dir("/a/b/c").is_dir

    def test_mkdir_existing_fails(self, fs_client):
        fs_client.mkdir("/a")
        with pytest.raises(Exists):
            fs_client.mkdir("/a")

    def test_mkdir_missing_parent_fails(self, fs_client):
        with pytest.raises(NoEntry):
            fs_client.mkdir("/no/such/parent")

    def test_mkdir_root_fails(self, fs_client):
        with pytest.raises((Exists, InvalidArgument)):
            fs_client.mkdir("/")

    def test_rmdir_empty(self, fs_client):
        fs_client.mkdir("/gone")
        fs_client.rmdir("/gone")
        with pytest.raises(NoEntry):
            fs_client.stat_dir("/gone")

    def test_rmdir_nonempty_subdir_fails(self, fs_client):
        fs_client.mkdir("/a")
        fs_client.mkdir("/a/b")
        with pytest.raises(NotEmpty):
            fs_client.rmdir("/a")

    def test_rmdir_nonempty_file_fails(self, fs_client):
        fs_client.mkdir("/a")
        fs_client.create("/a/f")
        with pytest.raises(NotEmpty):
            fs_client.rmdir("/a")

    def test_rmdir_missing_fails(self, fs_client):
        with pytest.raises(NoEntry):
            fs_client.rmdir("/missing")

    def test_rmdir_root_fails(self, fs_client):
        with pytest.raises((InvalidArgument, PermissionDenied, NotEmpty)):
            fs_client.rmdir("/")

    def test_readdir_mixed(self, fs_client):
        fs_client.mkdir("/d")
        fs_client.mkdir("/d/sub1")
        fs_client.mkdir("/d/sub2")
        fs_client.create("/d/f1")
        fs_client.create("/d/f2")
        entries = fs_client.readdir("/d")
        names = [e.name for e in entries]
        assert names == ["f1", "f2", "sub1", "sub2"]
        kinds = {e.name: e.is_dir for e in entries}
        assert kinds["sub1"] and not kinds["f1"]

    def test_readdir_empty(self, fs_client):
        fs_client.mkdir("/empty")
        assert fs_client.readdir("/empty") == []

    def test_readdir_missing_fails(self, fs_client):
        with pytest.raises(NoEntry):
            fs_client.readdir("/nope")

    def test_readdir_root(self, fs_client):
        fs_client.mkdir("/top")
        assert "top" in [e.name for e in fs_client.readdir("/")]

    # -- files ---------------------------------------------------------------------
    def test_create_and_stat(self, fs_client):
        fs_client.mkdir("/a")
        fs_client.create("/a/f")
        st = fs_client.stat_file("/a/f")
        assert st.is_file
        assert st.st_size == 0

    def test_create_in_root(self, fs_client):
        fs_client.create("/rootfile")
        assert fs_client.stat_file("/rootfile").is_file

    def test_create_existing_fails(self, fs_client):
        fs_client.create("/f")
        with pytest.raises(Exists):
            fs_client.create("/f")

    def test_create_missing_parent_fails(self, fs_client):
        with pytest.raises(NoEntry):
            fs_client.create("/no/f")

    def test_unlink(self, fs_client):
        fs_client.create("/f")
        fs_client.unlink("/f")
        with pytest.raises(NoEntry):
            fs_client.stat_file("/f")

    def test_unlink_missing_fails(self, fs_client):
        with pytest.raises(NoEntry):
            fs_client.unlink("/missing")

    def test_unlink_then_recreate(self, fs_client):
        fs_client.create("/f")
        fs_client.unlink("/f")
        fs_client.create("/f")
        assert fs_client.stat_file("/f").is_file

    def test_generic_stat_dispatches(self, fs_client):
        fs_client.mkdir("/d")
        fs_client.create("/d/f")
        assert fs_client.stat("/d").is_dir
        assert fs_client.stat("/d/f").is_file
        assert fs_client.stat("/").is_dir
        with pytest.raises(NoEntry):
            fs_client.stat("/ghost")

    def test_open_checks_existence(self, fs_client):
        fs_client.create("/f")
        handle = fs_client.open("/f")
        assert handle["size"] == 0
        with pytest.raises(NoEntry):
            fs_client.open("/missing")

    # -- attributes ---------------------------------------------------------------------
    def test_chmod_file(self, fs_client):
        fs_client.create("/f", mode=0o644)
        fs_client.chmod("/f", 0o600)
        assert fs_client.stat_file("/f").st_mode & 0o7777 == 0o600

    def test_chmod_dir(self, fs_client):
        fs_client.mkdir("/d", mode=0o755)
        fs_client.chmod("/d", 0o700)
        assert fs_client.stat_dir("/d").st_mode & 0o7777 == 0o700

    def test_chown_file(self, fs_client):
        fs_client.create("/f")
        fs_client.chown("/f", 42, 43)
        st = fs_client.stat_file("/f")
        assert (st.st_uid, st.st_gid) == (42, 43)

    def test_access_respects_mode(self, fs_client):
        fs_client.create("/f", mode=0o640)
        assert fs_client.access("/f", 4)  # root reads anything
        assert fs_client.access("/f", 2)

    def test_truncate_sets_size(self, fs_client):
        fs_client.create("/f")
        fs_client.truncate("/f", 12345)
        assert fs_client.stat_file("/f").st_size == 12345

    # -- permissions (non-root credentials) ------------------------------------------------
    def test_permission_denied_on_locked_dir(self, fs_client, fs_factory):
        fs_client.mkdir("/locked", mode=0o700)
        other = fs_factory(Credentials(uid=1000, gid=1000))
        with pytest.raises(PermissionDenied):
            other.create("/locked/f")

    def test_non_owner_cannot_chmod(self, fs_client, fs_factory):
        fs_client.create("/f")
        other = fs_factory(Credentials(uid=1000, gid=1000))
        with pytest.raises(PermissionDenied):
            other.chmod("/f", 0o777)

    def test_other_user_can_use_open_dir(self, fs_client, fs_factory):
        fs_client.mkdir("/pub", mode=0o777)
        other = fs_factory(Credentials(uid=1000, gid=1000))
        other.create("/pub/mine")
        assert other.stat_file("/pub/mine").st_uid == 1000

    # -- data ----------------------------------------------------------------------------------
    def test_write_read_roundtrip(self, fs_client):
        fs_client.create("/f")
        data = b"The quick brown fox jumps over the lazy dog" * 100
        assert fs_client.write("/f", 0, data) == len(data)
        assert fs_client.read("/f", 0, len(data)) == data
        assert fs_client.stat_file("/f").st_size == len(data)

    def test_write_at_offset(self, fs_client):
        fs_client.create("/f")
        fs_client.write("/f", 0, b"aaaaaaaaaa")
        fs_client.write("/f", 5, b"BB")
        assert fs_client.read("/f", 0, 10) == b"aaaaaBBaaa"

    def test_write_spanning_blocks(self, fs_client):
        fs_client.create("/f")
        data = bytes(range(256)) * 64  # 16 KiB, several 4 KiB blocks
        fs_client.write("/f", 1000, data)
        assert fs_client.read("/f", 1000, len(data)) == data

    def test_read_past_eof_is_short(self, fs_client):
        fs_client.create("/f")
        fs_client.write("/f", 0, b"xyz")
        assert fs_client.read("/f", 0, 100) == b"xyz"
        assert fs_client.read("/f", 50, 10) == b""

    def test_read_missing_file_fails(self, fs_client):
        with pytest.raises(NoEntry):
            fs_client.read("/missing", 0, 1)

    def test_truncate_leaves_a_hole_of_zeros(self, fs_client):
        """A shrink forgets the bytes past the new size: a later write past
        the old end leaves a hole that reads zeros, not the old data."""
        fs_client.create("/f")
        fs_client.write("/f", 0, b"A" * 8192)
        fs_client.truncate("/f", 0)
        fs_client.write("/f", 8192, b"B" * 10)
        assert fs_client.read("/f", 0, 16) == bytes(16)
        assert fs_client.read("/f", 8188, 8) == bytes(4) + b"BBBB"

    def test_truncate_across_blocks(self, fs_client):
        """Cut inside the second 4 KiB block, grow past the third, write
        across the first boundary: each byte is the last write's or zero."""
        data = bytes(range(256)) * 48  # 12 KiB, three blocks
        fs_client.create("/f")
        fs_client.write("/f", 0, data)
        fs_client.truncate("/f", 4100)
        assert fs_client.read("/f", 4090, 20) == data[4090:4100]
        fs_client.truncate("/f", 13000)
        fs_client.write("/f", 4094, b"xyzw")
        got = fs_client.read("/f", 4090, 20)
        assert got == data[4090:4094] + b"xyzw" + data[4098:4100] + bytes(10)
        assert fs_client.read("/f", 12280, 720) == bytes(720)
        assert fs_client.stat_file("/f").st_size == 13000

    def test_write_updates_mtime_and_size(self, fs_client):
        fs_client.create("/f")
        st0 = fs_client.stat_file("/f")
        fs_client.write("/f", 0, b"x" * 100)
        st1 = fs_client.stat_file("/f")
        assert st1.st_size == 100
        assert st1.st_mtime >= st0.st_mtime

    # -- rename -------------------------------------------------------------------------------
    def test_rename_file_same_dir(self, fs_client):
        fs_client.create("/old")
        fs_client.rename("/old", "/new")
        assert fs_client.stat_file("/new").is_file
        with pytest.raises(NoEntry):
            fs_client.stat_file("/old")

    def test_rename_file_across_dirs(self, fs_client):
        fs_client.mkdir("/a")
        fs_client.mkdir("/b")
        fs_client.create("/a/f")
        fs_client.write("/a/f", 0, b"payload")
        fs_client.rename("/a/f", "/b/g")
        assert fs_client.read("/b/g", 0, 7) == b"payload"
        assert [e.name for e in fs_client.readdir("/a")] == []
        assert [e.name for e in fs_client.readdir("/b")] == ["g"]

    def test_rename_replaces_destination(self, fs_client):
        fs_client.create("/src")
        fs_client.write("/src", 0, b"SRC")
        fs_client.create("/dst")
        fs_client.write("/dst", 0, b"OLDDST")
        fs_client.rename("/src", "/dst")
        assert fs_client.read("/dst", 0, 3) == b"SRC"
        assert fs_client.stat_file("/dst").st_size == 3

    def test_rename_missing_fails(self, fs_client):
        with pytest.raises(NoEntry):
            fs_client.rename("/ghost", "/elsewhere")

    def test_rename_directory(self, fs_client):
        fs_client.mkdir("/olddir")
        fs_client.mkdir("/olddir/sub")
        fs_client.create("/olddir/f")
        fs_client.write("/olddir/f", 0, b"data")
        fs_client.rename("/olddir", "/newdir")
        assert fs_client.stat_dir("/newdir").is_dir
        assert fs_client.stat_dir("/newdir/sub").is_dir
        assert fs_client.read("/newdir/f", 0, 4) == b"data"
        with pytest.raises(NoEntry):
            fs_client.stat_dir("/olddir")

    def test_rename_dir_into_itself_fails(self, fs_client):
        fs_client.mkdir("/a")
        with pytest.raises(InvalidArgument):
            fs_client.rename("/a", "/a/b")

    def test_rename_deep_tree(self, fs_client):
        fs_client.mkdir("/r")
        for i in range(3):
            fs_client.mkdir(f"/r/d{i}")
            for j in range(2):
                fs_client.mkdir(f"/r/d{i}/e{j}")
                fs_client.create(f"/r/d{i}/e{j}/file")
        fs_client.rename("/r", "/moved")
        for i in range(3):
            for j in range(2):
                assert fs_client.stat_file(f"/moved/d{i}/e{j}/file").is_file

    # -- scale smoke -----------------------------------------------------------------------------
    def test_many_files_in_one_directory(self, fs_client):
        fs_client.mkdir("/big")
        n = 200
        for i in range(n):
            fs_client.create(f"/big/file{i:04d}")
        entries = fs_client.readdir("/big")
        assert len(entries) == n
        assert [e.name for e in entries] == [f"file{i:04d}" for i in range(n)]

    def test_deep_path(self, fs_client):
        path = ""
        for i in range(12):
            path += f"/d{i}"
            fs_client.mkdir(path)
        fs_client.create(path + "/leaf")
        assert fs_client.stat_file(path + "/leaf").is_file
