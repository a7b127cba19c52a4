"""FUSE-style POSIX adapter over a LocoFS client (paper §3.1).

LocoClient offers two interfaces: ``locolib`` (the native API used
throughout the evaluation) and a FUSE mount that provides transparent
POSIX semantics at a per-operation cost — the paper cites Vangoor et
al. [45] and deliberately abandons FUSE for the benchmarks.  This adapter
reproduces both halves: a faithful file-descriptor/syscall surface
(open/read/write/lseek/close with flags and per-fd offsets) and the
modeled per-crossing FUSE overhead, so the FUSE-vs-locolib ablation can be
measured (the ``ablation-fuse`` rows of ``tests/claims.py``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.common.errors import Exists, InvalidArgument, NoEntry
from repro.sim.rpc import LocalCharge

# re-exported open(2) flags (values match os.*)
O_RDONLY = os.O_RDONLY
O_WRONLY = os.O_WRONLY
O_RDWR = os.O_RDWR
O_CREAT = os.O_CREAT
O_EXCL = os.O_EXCL
O_TRUNC = os.O_TRUNC
O_APPEND = os.O_APPEND

#: kernel->fuse-daemon->library crossings per syscall, each way (modeled;
#: Vangoor et al. measure tens of µs per request on the FUSE path)
DEFAULT_FUSE_OVERHEAD_US = 25.0

SEEK_SET = 0
SEEK_CUR = 1
SEEK_END = 2


@dataclass
class _OpenFile:
    path: str
    flags: int
    offset: int = 0


class LocoFuse:
    """A mounted-POSIX view of one LocoFS client."""

    def __init__(self, client, fuse_overhead_us: float = DEFAULT_FUSE_OVERHEAD_US):
        self.client = client
        self.fuse_overhead_us = fuse_overhead_us
        self._fds: dict[int, _OpenFile] = {}
        self._next_fd = 3  # 0-2 reserved, as tradition demands

    # -- plumbing -------------------------------------------------------------
    def _call(self, op: str, *args):
        """Run one client op with the FUSE crossing charged on top."""

        def gen():
            yield LocalCharge(self.fuse_overhead_us)
            result = yield from self.client.op_generator(op, *args)
            return result

        return self.client._engine.run(gen())

    def _file(self, fd: int) -> _OpenFile:
        try:
            return self._fds[fd]
        except KeyError:
            raise InvalidArgument(str(fd), f"bad file descriptor {fd}") from None

    # -- namespace syscalls -----------------------------------------------------
    def mkdir(self, path: str, mode: int = 0o755) -> None:
        self._call("mkdir", path, mode)

    def rmdir(self, path: str) -> None:
        self._call("rmdir", path)

    def readdir(self, path: str) -> list[str]:
        return [e.name for e in self._call("readdir", path)]

    def unlink(self, path: str) -> None:
        self._call("unlink", path)

    def rename(self, old: str, new: str) -> None:
        self._call("rename", old, new)

    def stat(self, path: str):
        return self._call("stat", path)

    def chmod(self, path: str, mode: int) -> None:
        self._call("chmod", path, mode)

    def chown(self, path: str, uid: int, gid: int) -> None:
        self._call("chown", path, uid, gid)

    def truncate(self, path: str, size: int) -> None:
        self._call("truncate", path, size)

    def access(self, path: str, want: int = 4) -> bool:
        return self._call("access", path, want)

    # -- file descriptors -----------------------------------------------------------
    def open(self, path: str, flags: int = O_RDONLY, mode: int = 0o644) -> int:
        """open(2): returns a file descriptor."""
        exists = True
        size = 0
        try:
            handle = self._call("open", path, 4)
            size = handle["size"]
        except NoEntry:
            exists = False
        if not exists:
            if not flags & O_CREAT:
                raise NoEntry(path)
            self._call("create", path, mode)
        elif flags & O_CREAT and flags & O_EXCL:
            raise Exists(path)
        if flags & O_TRUNC and exists:
            self._call("truncate", path, 0)
            size = 0
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = _OpenFile(path=path, flags=flags,
                                  offset=size if flags & O_APPEND else 0)
        return fd

    def creat(self, path: str, mode: int = 0o644) -> int:
        return self.open(path, O_CREAT | O_WRONLY | O_TRUNC, mode)

    def close(self, fd: int) -> None:
        self._file(fd)
        del self._fds[fd]

    def read(self, fd: int, count: int) -> bytes:
        f = self._file(fd)
        if f.flags & O_WRONLY:
            raise InvalidArgument(f.path, "fd not open for reading")
        data = self._call("read", f.path, f.offset, count)
        f.offset += len(data)
        return data

    def write(self, fd: int, data: bytes) -> int:
        f = self._file(fd)
        if not (f.flags & (O_WRONLY | O_RDWR)):
            raise InvalidArgument(f.path, "fd not open for writing")
        if f.flags & O_APPEND:
            f.offset = self._call("stat", f.path).st_size
        n = self._call("write", f.path, f.offset, data)
        f.offset += n
        return n

    def lseek(self, fd: int, offset: int, whence: int = SEEK_SET) -> int:
        f = self._file(fd)
        if whence == SEEK_SET:
            new = offset
        elif whence == SEEK_CUR:
            new = f.offset + offset
        elif whence == SEEK_END:
            new = self._call("stat", f.path).st_size + offset
        else:
            raise InvalidArgument(f.path, f"bad whence {whence}")
        if new < 0:
            raise InvalidArgument(f.path, "negative seek position")
        f.offset = new
        return new

    def pread(self, fd: int, count: int, offset: int) -> bytes:
        f = self._file(fd)
        return self._call("read", f.path, offset, count)

    def pwrite(self, fd: int, data: bytes, offset: int) -> int:
        f = self._file(fd)
        return self._call("write", f.path, offset, data)

    @property
    def open_fd_count(self) -> int:
        return len(self._fds)
