"""Tests for the FUSE-style POSIX adapter."""

import pytest

from repro.common.config import ClusterConfig
from repro.common.errors import Exists, InvalidArgument, NoEntry
from repro.core.fs import LocoFS
from repro.core.fuse import (
    O_APPEND,
    O_CREAT,
    O_EXCL,
    O_RDONLY,
    O_RDWR,
    O_TRUNC,
    O_WRONLY,
    SEEK_CUR,
    SEEK_END,
    SEEK_SET,
    LocoFuse,
)


@pytest.fixture
def mount():
    fs = LocoFS(ClusterConfig(num_metadata_servers=2))
    return LocoFuse(fs.client()), fs


class TestFdLifecycle:
    def test_open_creat_close(self, mount):
        fuse, _ = mount
        fd = fuse.open("/f", O_CREAT | O_WRONLY)
        assert fd >= 3
        fuse.close(fd)
        assert fuse.open_fd_count == 0

    def test_open_missing_without_creat_fails(self, mount):
        fuse, _ = mount
        with pytest.raises(NoEntry):
            fuse.open("/ghost", O_RDONLY)

    def test_o_excl_on_existing_fails(self, mount):
        fuse, _ = mount
        fuse.close(fuse.open("/f", O_CREAT))
        with pytest.raises(Exists):
            fuse.open("/f", O_CREAT | O_EXCL)

    def test_bad_fd_rejected(self, mount):
        fuse, _ = mount
        with pytest.raises(InvalidArgument):
            fuse.close(99)
        with pytest.raises(InvalidArgument):
            fuse.read(99, 10)

    def test_distinct_fds_independent_offsets(self, mount):
        fuse, _ = mount
        fd1 = fuse.open("/f", O_CREAT | O_RDWR)
        fuse.write(fd1, b"abcdef")
        fd2 = fuse.open("/f", O_RDONLY)
        assert fuse.read(fd2, 3) == b"abc"
        assert fuse.read(fd2, 3) == b"def"
        fuse.lseek(fd1, 0)
        assert fuse.read(fd1, 2) == b"ab"


class TestReadWrite:
    def test_sequential_write_then_read(self, mount):
        fuse, _ = mount
        fd = fuse.open("/data", O_CREAT | O_RDWR)
        assert fuse.write(fd, b"hello ") == 6
        assert fuse.write(fd, b"world") == 5
        fuse.lseek(fd, 0)
        assert fuse.read(fd, 11) == b"hello world"

    def test_write_requires_write_flag(self, mount):
        fuse, _ = mount
        fuse.close(fuse.open("/f", O_CREAT))
        fd = fuse.open("/f", O_RDONLY)
        with pytest.raises(InvalidArgument):
            fuse.write(fd, b"nope")

    def test_read_requires_read_flag(self, mount):
        fuse, _ = mount
        fd = fuse.open("/f", O_CREAT | O_WRONLY)
        with pytest.raises(InvalidArgument):
            fuse.read(fd, 1)

    def test_o_trunc_resets_contents(self, mount):
        fuse, _ = mount
        fd = fuse.open("/f", O_CREAT | O_WRONLY)
        fuse.write(fd, b"old contents")
        fuse.close(fd)
        fd = fuse.open("/f", O_WRONLY | O_TRUNC)
        fuse.close(fd)
        assert fuse.stat("/f").st_size == 0

    def test_creat_is_open_creat_wronly_trunc(self, mount):
        fuse, _ = mount
        fd = fuse.creat("/f", 0o600)  # absent: created, write-only
        assert fuse.write(fd, b"old contents") == 12
        with pytest.raises(InvalidArgument):
            fuse.read(fd, 1)
        fuse.close(fd)
        assert fuse.stat("/f").st_mode & 0o777 == 0o600
        fd = fuse.creat("/f")  # present: truncated, not an error
        assert fuse.stat("/f").st_size == 0
        assert fuse.write(fd, b"new") == 3
        fuse.close(fd)
        assert fuse.stat("/f").st_size == 3

    def test_truncate_by_path(self, mount):
        fuse, _ = mount
        fd = fuse.open("/f", O_CREAT | O_RDWR)
        fuse.write(fd, b"0123456789")
        fuse.truncate("/f", 4)
        assert fuse.stat("/f").st_size == 4
        fuse.truncate("/f", 0)
        assert fuse.stat("/f").st_size == 0
        with pytest.raises(NoEntry):
            fuse.truncate("/missing", 0)

    def test_o_append_positions_at_eof(self, mount):
        fuse, _ = mount
        fd = fuse.open("/log", O_CREAT | O_WRONLY)
        fuse.write(fd, b"line1\n")
        fuse.close(fd)
        fd = fuse.open("/log", O_WRONLY | O_APPEND)
        fuse.write(fd, b"line2\n")
        fuse.close(fd)
        fd = fuse.open("/log", O_RDONLY)
        assert fuse.read(fd, 100) == b"line1\nline2\n"

    def test_pread_pwrite_do_not_move_offset(self, mount):
        fuse, _ = mount
        fd = fuse.open("/f", O_CREAT | O_RDWR)
        fuse.write(fd, b"0123456789")
        fuse.pwrite(fd, b"XX", 2)
        assert fuse.pread(fd, 4, 0) == b"01XX"
        # offset unchanged by the positional ops
        fuse.lseek(fd, 0)
        fuse.read(fd, 10)
        assert fuse.lseek(fd, 0, SEEK_CUR) == 10


class TestSeek:
    def test_seek_modes(self, mount):
        fuse, _ = mount
        fd = fuse.open("/f", O_CREAT | O_RDWR)
        fuse.write(fd, b"x" * 100)
        assert fuse.lseek(fd, 10, SEEK_SET) == 10
        assert fuse.lseek(fd, 5, SEEK_CUR) == 15
        assert fuse.lseek(fd, -20, SEEK_END) == 80

    def test_negative_seek_rejected(self, mount):
        fuse, _ = mount
        fd = fuse.open("/f", O_CREAT | O_RDWR)
        with pytest.raises(InvalidArgument):
            fuse.lseek(fd, -1, SEEK_SET)


class TestNamespaceOps:
    def test_mkdir_readdir_rmdir(self, mount):
        fuse, _ = mount
        fuse.mkdir("/d")
        fuse.close(fuse.open("/d/f", O_CREAT))
        assert fuse.readdir("/d") == ["f"]
        fuse.unlink("/d/f")
        fuse.rmdir("/d")
        with pytest.raises(NoEntry):
            fuse.readdir("/d")

    def test_rename_and_stat(self, mount):
        fuse, _ = mount
        fuse.close(fuse.open("/a", O_CREAT))
        fuse.rename("/a", "/b")
        assert fuse.stat("/b").is_file

    def test_chmod_chown_access(self, mount):
        fuse, _ = mount
        fuse.close(fuse.open("/f", O_CREAT))
        fuse.chmod("/f", 0o600)
        fuse.chown("/f", 5, 5)
        st = fuse.stat("/f")
        assert st.st_mode & 0o7777 == 0o600
        assert (st.st_uid, st.st_gid) == (5, 5)
        assert fuse.access("/f", 4)


class TestFuseOverhead:
    def test_every_syscall_pays_the_crossing(self):
        fs = LocoFS(ClusterConfig(num_metadata_servers=1))
        client = fs.client()
        # native op cost
        t0 = fs.engine.now
        client.mkdir("/native")
        native = fs.engine.now - t0
        fuse = LocoFuse(fs.client(), fuse_overhead_us=100.0)
        t0 = fs.engine.now
        fuse.mkdir("/fused")
        fused = fs.engine.now - t0
        # small drift allowed: the DMS dirent value grows between the ops
        assert fused == pytest.approx(native + 100.0, abs=5.0)

    def test_overhead_configurable_to_zero(self):
        fs = LocoFS(ClusterConfig(num_metadata_servers=1))
        fuse = LocoFuse(fs.client(), fuse_overhead_us=0.0)
        t0 = fs.engine.now
        fuse.mkdir("/d")
        assert fs.engine.now - t0 < 2.0 * fs.cost.rtt_us
