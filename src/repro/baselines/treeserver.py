"""Generic partitioned metadata server for the baseline systems.

One :class:`TreePartitionServer` holds a *partition* of a traditional
directory tree: inodes keyed ``I:<path>`` (whole-record serialized values,
see :mod:`repro.baselines.codec`) and forward dirent lists keyed
``D:<path>``.  The baselines differ in how the client maps paths to
partitions and in the per-request software overheads configured here:

* ``overhead_read_us`` / ``overhead_write_us`` — the calibrated request
  path cost of the real C++ system (journaling, locking, xattr machinery;
  see :mod:`repro.sim.costmodel` for provenance).
* serialization — every inode read/write pays the whole-value
  (de)serialization charge the paper analyses in §2.2.2.
"""

from __future__ import annotations

from repro.common import pathutil
from repro.common.errors import (
    Exists,
    IsADirectory,
    NoEntry,
    NotADirectory,
    PermissionDenied,
)
from repro.common.types import Credentials, FileType, S_IFDIR, S_IFREG
from repro.common.uuidgen import FID_BITS, FID_MASK, UuidAllocator
from repro.kv import make_store
from repro.kv.meter import Meter
from repro.metadata import dirent as de
from repro.sim.costmodel import CostModel

from .codec import HEADER, decode_inode, encode_inode

_I = b"I:"
_D = b"D:"
_FILE = int(FileType.FILE)
_DIR = int(FileType.DIRECTORY)


def _ikey(path: str) -> bytes:
    return _I + path.encode("utf-8")


def _dkey(path: str) -> bytes:
    return _D + path.encode("utf-8")


class TreePartitionServer:
    """One metadata server of a baseline deployment."""

    def __init__(
        self,
        sid: int,
        store_kind: str = "hash",
        overhead_read_us: float = 0.0,
        overhead_write_us: float = 0.0,
        cost: CostModel | None = None,
        has_root: bool = False,
    ):
        self.sid = sid
        kwargs = {"wal_enabled": False} if store_kind == "lsm" else {}
        self.store = make_store(store_kind, **kwargs)
        self.store_kind = store_kind
        self.meter = self.store.meter
        self.cost = cost or CostModel()
        self.overhead_read_us = overhead_read_us
        self.overhead_write_us = overhead_write_us
        self.alloc = UuidAllocator(sid=sid)
        if has_root:
            self._install_root()

    def _install_root(self) -> None:
        fields = {
            "kind": int(FileType.DIRECTORY), "mode": S_IFDIR | 0o755,
            "uid": 0, "gid": 0, "uuid": 0, "ctime": 0.0, "mtime": 0.0,
            "atime": 0.0, "size": 0, "bsize": 4096,
        }
        self.store.put(_ikey("/"), encode_inode(fields))
        self.store.put(_dkey("/"), b"")

    def attach_meter(self, meter: Meter) -> None:
        self.store.meter = meter
        self.meter = meter

    # -- charging helpers ------------------------------------------------------------
    def _begin(self, mutating: bool) -> None:
        us = self.overhead_write_us if mutating else self.overhead_read_us
        if us:
            self.meter.pending += (("software_overhead", None, us),)

    def _read_inode(self, path: str) -> dict:
        buf = self.store.get(_ikey(path))
        if buf is None:
            raise NoEntry(path)
        self.meter.pending += (("deserialize", None, self.cost.serialize_us(len(buf))),)
        return decode_inode(buf)

    def _write_inode(self, path: str, fields: dict) -> None:
        buf = encode_inode(fields)
        self.meter.pending += (("serialize", None, self.cost.serialize_us(len(buf))),)
        self.store.put(_ikey(path), buf)

    # -- read ops -------------------------------------------------------------------------
    def op_lookup(self, path: str) -> dict:
        self._begin(False)
        return self._read_inode(path)

    def op_getattr(self, path: str) -> dict:
        self._begin(False)
        return self._read_inode(path)

    def op_exists(self, path: str) -> bool:
        self._begin(False)
        return self.store.get(_ikey(path)) is not None

    def op_lock(self, path: str) -> bool:
        """Distributed-lock acquisition round trip (Lustre LDLM enqueue)."""
        self._begin(False)
        return True

    def op_set_layout(self, path: str) -> bool:
        """Layout/xattr write after a namespace op (Gluster DHT phase 3)."""
        self._begin(True)
        return True

    def op_readdir(self, path: str) -> bytes:
        """Concatenated dirents of this partition's view of ``path``."""
        self._begin(False)
        return self.store.get(_dkey(path)) or b""

    def op_count_children(self, path: str) -> int:
        self._begin(False)
        return de.count_entries(self.store.get(_dkey(path)) or b"")

    def op_open(self, path: str, cred: Credentials, want: int) -> dict:
        self._begin(False)
        from repro.metadata.acl import may_access

        ino = self._read_inode(path)
        if not may_access(ino["mode"], ino["uid"], ino["gid"], cred, want):
            raise PermissionDenied(path)
        return {"uuid": ino["uuid"], "mode": ino["mode"], "size": ino["size"]}

    def op_access(self, path: str, cred: Credentials, want: int) -> bool:
        self._begin(False)
        from repro.metadata.acl import may_access

        ino = self._read_inode(path)
        return may_access(ino["mode"], ino["uid"], ino["gid"], cred, want)

    # -- mutations: directories -----------------------------------------------------------
    def op_put_dir_inode(self, path: str, mode: int, cred: Credentials, now_s: float) -> int:
        """Create a directory inode (and its empty dirent list) here."""
        raw = path.encode()
        uuid = self._new_inode(path, _I + raw, _DIR, S_IFDIR | (mode & 0o7777), cred,
                               now_s, 4096)
        self.store.put(_D + raw, b"")
        return uuid

    def op_link(self, parent: str, name: str, ftype: int, uuid: int) -> None:
        """Add a forward dirent into this partition's list for ``parent``."""
        self._begin(True)
        self.store.append(_dkey(parent), de.pack_entry(name, uuid, FileType(ftype)))

    def op_unlink_dirent(self, parent: str, name: str) -> bool:
        self._begin(True)
        buf = self.store.get(_dkey(parent)) or b""
        newbuf, removed = de.remove_entry(buf, name)
        if removed:
            self.store.put(_dkey(parent), newbuf)
        return removed

    def op_mkdir_local(self, path: str, mode: int, cred: Credentials, now_s: float) -> int:
        """mkdir when the parent's dirents live on this server too (1 RPC):
        :meth:`op_put_dir_inode`, then the entry appended to the parent's
        list — the same charges, in the same order."""
        raw = path.encode()
        uuid = self._new_inode(path, _I + raw, _DIR, S_IFDIR | (mode & 0o7777), cred,
                               now_s, 4096)
        store = self.store
        store.put(_D + raw, b"")
        store.append(*self._link_args(raw, uuid, _DIR))
        return uuid

    def op_rmdir_local(self, path: str) -> None:
        """Remove inode + its dirent list + its entry in the local parent copy."""
        self._begin(True)
        if self.store.get(_ikey(path)) is None:
            raise NoEntry(path)
        self.store.delete(_ikey(path))
        self.store.delete(_dkey(path))
        parent, name = pathutil.split(path)
        buf = self.store.get(_dkey(parent))
        if buf is not None:
            newbuf, _ = de.remove_entry(buf, name)
            self.store.put(_dkey(parent), newbuf)

    def op_delete_dirent_list(self, path: str) -> None:
        """Drop this partition's D:<path> list (rmdir cleanup)."""
        self._begin(True)
        self.store.delete(_dkey(path))

    def op_mkdir_replica(self, path: str, mode: int, cred: Credentials, now_s: float,
                         uuid: int) -> None:
        """Gluster support: install a replica of a directory with a fixed uuid."""
        self._begin(True)
        self._write_inode(path, {
            "kind": int(FileType.DIRECTORY), "mode": S_IFDIR | (mode & 0o7777),
            "uid": cred.uid, "gid": cred.gid, "uuid": uuid, "ctime": now_s,
            "mtime": now_s, "atime": now_s, "size": 0, "bsize": 4096,
        })
        if self.store.get(_dkey(path)) is None:
            self.store.put(_dkey(path), b"")
        parent, name = pathutil.split(path)
        buf = self.store.get(_dkey(parent)) or b""
        if not de.contains(buf, name):
            self.store.append(_dkey(parent), de.pack_entry(name, uuid, FileType.DIRECTORY))

    def op_delete_dir_inode(self, path: str) -> None:
        self._begin(True)
        if self.store.get(_ikey(path)) is None:
            raise NoEntry(path)
        self.store.delete(_ikey(path))
        self.store.delete(_dkey(path))

    # -- mutations: files -------------------------------------------------------------------
    def op_create_local(self, path: str, mode: int, cred: Credentials, now_s: float,
                        bsize: int) -> int:
        """create when inode and parent dirents are co-located (1 RPC)."""
        raw = path.encode()
        uuid = self._new_inode(path, _I + raw, _FILE, S_IFREG | (mode & 0o7777), cred,
                               now_s, bsize)
        self.store.append(*self._link_args(raw, uuid, _FILE))
        return uuid

    def op_put_file_inode(self, path: str, mode: int, cred: Credentials, now_s: float,
                          bsize: int) -> int:
        """create (split form): inode only; the dirent goes elsewhere."""
        return self._new_inode(path, _I + path.encode(), _FILE, S_IFREG | (mode & 0o7777),
                               cred, now_s, bsize)

    # The four create-side handlers (``op_put_dir_inode``, ``op_mkdir_local``,
    # ``op_create_local``, ``op_put_file_inode``) encode the path once (its
    # bytes give the inode key, the parent's list key and the entry name:
    # paths arrive normalized, so the last "/" splits them) and store a
    # fresh inode through ``_new_inode`` — the same charges with the same arguments in
    # the same order, and the same bytes, as ``_begin`` + ``get`` +
    # ``UuidAllocator.allocate`` + ``_write_inode`` + ``dirent.pack_entry``
    # + ``append``.
    def _new_inode(self, path: str, ikey: bytes, kind: int, mode: int,
                   cred: Credentials, now_s: float, bsize: int) -> int:
        """Charge the write overhead, probe ``ikey``, allocate a uuid and
        store a fresh inode there."""
        us = self.overhead_write_us
        if us:  # == _begin(True)
            self.meter.pending += (("software_overhead", None, us),)
        store = self.store
        if store.get(ikey) is not None:
            raise Exists(path)
        alloc = self.alloc  # UuidAllocator.allocate; its sid is checked
        fid = alloc._next_fid
        if fid > FID_MASK:
            raise ValueError(f"fid out of range: {fid}")
        alloc._next_fid = fid + 1
        uuid = alloc.sid << FID_BITS | fid
        # == encode_inode: a fresh inode has size 0, so no index region
        buf = HEADER.pack(kind, mode, cred.uid, cred.gid, uuid, now_s, now_s, now_s,
                          0, bsize, 0)
        cost = self.cost
        self.meter.pending += ((
            "serialize", None,  # priced as cost.serialize_us(len(buf))
            cost.serialize_fixed_us + HEADER.size * cost.serialize_per_byte_us),)
        store.put(ikey, buf)
        return uuid

    @staticmethod
    def _link_args(raw: bytes, uuid: int, kind: int) -> tuple[bytes, bytes]:
        """``(parent list key, packed entry)`` of the encoded path ``raw``."""
        cut = raw.rfind(b"/")
        name = raw[cut + 1:]
        nlen = len(name)
        if not nlen or nlen > de.MAX_NAME_BYTES:
            raise ValueError(f"bad dirent name: {name.decode()!r}")
        return _D + (raw[:cut] or b"/"), de.HEAD.pack(nlen) + name + de.TAIL.pack(uuid, kind)

    def op_remove_file(self, path: str, cred: Credentials, unlink_local_dirent: bool) -> dict:
        self._begin(True)
        ino = self._read_inode(path)
        if ino["kind"] != int(FileType.FILE):
            raise NotADirectory(path, "remove target is a directory")
        if not cred.is_root and cred.uid != ino["uid"]:
            raise PermissionDenied(path)
        self.store.delete(_ikey(path))
        if unlink_local_dirent:
            parent, name = pathutil.split(path)
            buf = self.store.get(_dkey(parent))
            if buf is not None:
                newbuf, _ = de.remove_entry(buf, name)
                self.store.put(_dkey(parent), newbuf)
        return {"uuid": ino["uuid"], "bsize": ino["bsize"], "size": ino["size"]}

    # -- attribute mutations (whole-value rewrite each time) ---------------------------------------
    def op_setattr(self, path: str, cred: Credentials, now_s: float,
                   mode: int | None = None, uid: int | None = None,
                   gid: int | None = None) -> None:
        self._begin(True)
        ino = self._read_inode(path)
        if not cred.is_root and cred.uid != ino["uid"]:
            raise PermissionDenied(path)
        if mode is not None:
            ino["mode"] = (ino["mode"] & ~0o7777) | (mode & 0o7777)
        if uid is not None:
            ino["uid"] = uid
        if gid is not None:
            ino["gid"] = gid
        ino["ctime"] = now_s
        self._write_inode(path, ino)

    def op_truncate(self, path: str, size: int, now_s: float) -> dict:
        """Set the size; returns ``{"uuid", "bsize", "size"}`` as they
        were before, so a shrinking client can cut the file's blocks."""
        self._begin(True)
        ino = self._read_inode(path)
        if ino["kind"] != int(FileType.FILE):
            raise IsADirectory(path)
        old = {"uuid": ino["uuid"], "bsize": ino["bsize"], "size": ino["size"]}
        ino["size"] = size
        ino["mtime"] = now_s
        self._write_inode(path, ino)
        return old

    def op_write_meta(self, path: str, end_offset: int, now_s: float) -> dict:
        self._begin(True)
        ino = self._read_inode(path)
        if ino["kind"] != int(FileType.FILE):
            raise IsADirectory(path)
        ino["size"] = max(ino["size"], end_offset)
        ino["mtime"] = now_s
        self._write_inode(path, ino)  # index region grows with the file
        return {"uuid": ino["uuid"], "bsize": ino["bsize"], "size": ino["size"]}

    def op_read_meta(self, path: str, now_s: float) -> dict:
        self._begin(True)
        ino = self._read_inode(path)
        if ino["kind"] != int(FileType.FILE):
            raise IsADirectory(path)
        ino["atime"] = now_s
        self._write_inode(path, ino)
        return {"uuid": ino["uuid"], "bsize": ino["bsize"], "size": ino["size"]}

    # -- rename support -----------------------------------------------------------------------------
    def op_delete_inode_raw(self, path: str) -> bytes:
        """Detach an inode record for relocation (f-rename)."""
        self._begin(True)
        buf = self.store.get(_ikey(path))
        if buf is None:
            raise NoEntry(path)
        self.meter.pending += (("deserialize", None, self.cost.serialize_us(len(buf))),)
        self.store.delete(_ikey(path))
        return buf

    def op_put_inode_raw(self, path: str, raw: bytes) -> None:
        self._begin(True)
        if self.store.get(_ikey(path)) is not None:
            raise Exists(path)
        self.meter.pending += (("serialize", None, self.cost.serialize_us(len(raw))),)
        self.store.put(_ikey(path), raw)

    def op_export_subtree(self, root: str) -> list[tuple[str, str, bytes]]:
        """Detach every record under (and including) ``root``.

        Returns ``(kind, path, raw)`` tuples where kind is "I" or "D".
        Hash-backed partitions pay a full scan here; ordered ones a range
        scan — the same contrast Fig. 14 measures at the store level.
        """
        self._begin(True)
        prefix = pathutil.dir_key_prefix(root)
        records: list[tuple[str, str, bytes]] = []
        for lead, kind in ((_I, "I"), (_D, "D")):
            exact = lead + root.encode()
            buf = self.store.get(exact)
            if buf is not None:
                records.append((kind, root, buf))
            for k, v in list(self.store.prefix_scan(lead + prefix.encode())):
                records.append((kind, k[len(lead):].decode(), v))
        for kind, path, _ in records:
            self.store.delete((_I if kind == "I" else _D) + path.encode())
        return records

    def op_import_records(self, records: list[tuple[str, str, bytes]]) -> None:
        self._begin(True)
        for kind, path, raw in records:
            self.store.put((_I if kind == "I" else _D) + path.encode(), raw)

    # -- introspection ---------------------------------------------------------------------------------
    def num_inodes(self) -> int:
        return sum(1 for k, _ in self.store.items() if k.startswith(_I))

    def close(self) -> None:
        self.store.close()
