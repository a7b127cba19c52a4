"""Directory Metadata Server (paper §3.1–§3.2).

The single DMS stores *every* directory inode, keyed by the directory's
full path name in an ordered B+-tree store (Kyoto Cabinet TreeDB in the
paper).  Because d-inodes in the flattened directory tree carry no forward
links, each is an independent KV record:

* ``I:<full path>``  -> 256-byte ``DIR_INODE`` value (ctime, mode, uid,
  gid, uuid — Table 1)
* ``E:<dir uuid>``   -> concatenated dirents of the directory's
  *sub-directories* (backward dirent organization, §3.2.1; the files'
  dirents live on the FMS servers)

Ancestor ACL checks happen entirely inside the DMS with one client RPC
(§3.1): the walk performs one local KV get per path level, so deep trees
cost DMS service time but never extra round trips.  A write-through
in-memory mirror of (mode, uid, gid, uuid) per path supports existence
and permission bookkeeping and is rebuilt from the store on restart.

A directory rename relocates the directory's own record plus the records
of all descendant *directories* — a contiguous prefix move in the B+-tree
(§3.4.3).  Files and data blocks are indexed by UUID and never move.
"""

from __future__ import annotations

import os

from repro.common import pathutil
from repro.common.errors import (
    Exists,
    FSError,
    InvalidArgument,
    NoEntry,
    NotEmpty,
    PermissionDenied,
)
from repro.common.stats import Counters
from repro.common.types import (
    Credentials,
    DEFAULT_DIR_MODE,
    FileType,
    S_IFDIR,
)
from repro.common.uuidgen import FID_BITS, FID_MASK, ROOT_UUID, UuidAllocator
from repro.kv import make_store
from repro.kv.api import GroupCommit
from repro.kv.meter import Meter, NullMeter
from repro.kv.wal import WriteAheadLog
from repro.metadata import dirent
from repro.metadata.acl import W_OK, X_OK, may_access
from repro.metadata.layout import DIR_INODE

_I = b"I:"
_E = b"E:"


def _ikey(path: str) -> bytes:
    return _I + path.encode("utf-8")


def _ekey(uuid: int) -> bytes:
    return _E + uuid.to_bytes(8, "big")


class DirectoryMetadataServer:
    """Handler object for the single DMS node."""

    #: how many uuids are reserved per durable allocator checkpoint
    FID_RESERVE = 1024
    #: whether ``/`` lives here (a directory shard other than 0 has none)
    has_root = True
    _FID_KEY = b"M:fid_ceiling"

    def __init__(
        self,
        backend: str = "btree",
        sid: int = 0,
        track_touches: bool = False,
        wal_path: str | None = None,
    ):
        if backend not in ("btree", "hash"):
            raise ValueError(f"unsupported DMS backend: {backend!r}")
        self.backend = backend
        self.meter = NullMeter()  # replaced when a cluster attaches its node meter
        self.alloc = UuidAllocator(sid=sid)
        self.track_touches = track_touches
        self.touches: dict[str, set[str]] = {}
        #: handler-level telemetry (ACL-walk depth, rename fan-out); mirrored
        #: into a metrics registry as ``dms.*`` when a run opts in
        self.counters = Counters()
        self._open(wal_path)
        self._load()

    def _open(self, wal_path: str | None) -> None:
        """A store of this server's backend over ``wal_path`` (replayed when
        the log exists), metered by this node, with an empty mirror."""
        self.store = make_store(self.backend, wal_path=wal_path)
        self.store.meter = self.meter
        # write-through mirror for ancestor ACL walks: path -> (mode, uid, gid, uuid)
        self._meta: dict[str, tuple[int, int, int, int]] = {}

    def _load(self) -> None:
        """Bring the volatile state up from whatever the store holds — the
        one root-or-recover decision behind construction, restart and a
        replica's log wipe: recover the mirror and the allocator, then
        seed ``/`` iff this server owns it and the store has none."""
        self._recover()
        if self.has_root and "/" not in self._meta:
            self._mkroot()

    def _mkroot(self) -> None:
        mode = S_IFDIR | DEFAULT_DIR_MODE
        buf = DIR_INODE.pack(ctime=0.0, mode=mode, uid=0, gid=0, uuid=ROOT_UUID)
        self.store.put(_ikey("/"), buf)
        self.store.put(_ekey(ROOT_UUID), b"")
        self._meta["/"] = (mode, 0, 0, ROOT_UUID)

    def _recover(self) -> None:
        """Rebuild the in-memory mirror and uuid allocator after a restart."""
        for key, buf in self.store.items():
            if not key.startswith(_I):
                continue
            path = key[len(_I):].decode("utf-8")
            self._meta[path] = (*DIR_INODE.perm(buf), DIR_INODE.read(buf, "uuid"))
        ceiling = self.store.get(self._FID_KEY)
        if ceiling is not None:
            # skip the reserved range: ids up to the ceiling may be in use
            self.alloc._next_fid = int.from_bytes(ceiling, "big") + 1

    def _allocate_uuid(self) -> int:
        """Allocate a uuid, durably reserving id ranges in batches.

        ``UuidAllocator.allocate`` inline, as ``FileMetadataServer.op_create``
        does it (the sid was range-checked at construction): the same uuid
        for one frame instead of four."""
        alloc = self.alloc
        fid = alloc._next_fid
        if fid > FID_MASK:
            raise ValueError(f"fid out of range: {fid}")
        alloc._next_fid = fid + 1
        ceiling = self.store.get(self._FID_KEY)
        if ceiling is None or fid > int.from_bytes(ceiling, "big"):
            self.store.put(self._FID_KEY, (fid + self.FID_RESERVE).to_bytes(8, "big"))
        return alloc.sid << FID_BITS | fid

    def group_commit(self) -> GroupCommit:
        """Group-commit scope for batched RPCs (one WAL fsync per batch) —
        same contract as :meth:`FileMetadataServer.group_commit`: counts
        every scope and the durable commit boundaries it produced, so the
        deferred-mkdir amortization claim is auditable from the metrics."""
        return GroupCommit(self.store, self.counters)

    # -- wiring ------------------------------------------------------------------
    def attach_meter(self, meter: Meter) -> None:
        self.store.meter = meter
        self.meter = meter

    # -- crash/recovery (repro.sim.faults hooks) ----------------------------------
    def crash(self, torn_tail_bytes: int = 0) -> None:
        """The DMS process dies: the store and the path->meta mirror are
        volatile; only the WAL survives, optionally with a torn tail."""
        store = self.store
        wal = getattr(store, "_wal", None)
        self._wal_path = wal.path if wal is not None else None
        store.close()
        if self._wal_path is not None and torn_tail_bytes:
            WriteAheadLog.tear_tail(self._wal_path, torn_tail_bytes)
        self._open(None)

    def restart(self) -> int:
        """Rebuild the store by WAL replay (then the mirror from the
        store); returns the replayed byte count for recovery latency."""
        path = getattr(self, "_wal_path", None)
        nbytes = os.path.getsize(path) if path and os.path.exists(path) else 0
        self._open(path)
        self._load()
        return nbytes

    def bind_metrics(self, registry, prefix: str) -> None:
        self.counters.bind(registry, prefix)

    def _touch(self, op: str, *parts: str) -> None:
        """Record the inode parts ``op`` touched; callers test
        ``track_touches`` first, so an untracked op pays no frame."""
        self.touches.setdefault(op, set()).update(parts)

    # -- internals -----------------------------------------------------------------
    def _acl_walk(self, path: str, cred: Credentials) -> None:
        """Check search permission on every ancestor of ``path``.

        One *local* KV get per level: all ancestors live on this server, so
        the walk costs no network round trips (§3.1) — but it is real work,
        which is why deep trees reduce DMS capacity (Fig. 13).

        ``path`` is normalized.  The ancestors of ``/a/b/c`` are the
        prefixes ending before each ``/`` (``/``, ``/a``, ``/a/b``), found
        in place with ``str.find`` — the same levels, store gets and
        verdicts, in the same order, as walking ``pathutil.ancestors``.
        The first level that is missing or denies search raises, naming
        that ancestor; nothing below it is read.
        """
        levels = path.count("/") if path != "/" else 0
        self.counters.inc("acl.walk_levels", levels)
        if not levels:
            return
        get = self.store.get
        perm = DIR_INODE.perm
        # ``may_access`` grants root everything, so a root walk only needs
        # each level to exist; anyone else has its permission triple checked
        check = cred.uid != 0
        anc = "/"
        i = 0
        while True:
            buf = get(_I + anc.encode())
            if buf is None:
                raise NoEntry(anc)
            if check:
                mode, uid, gid = perm(buf)
                if not may_access(mode, uid, gid, cred, X_OK):
                    raise PermissionDenied(anc)
            i = path.find("/", i + 1)
            if i < 0:
                return
            anc = path[:i]

    # -- directory operations (Table 1 rows) --------------------------------------------
    def op_mkdir(self, path: str, mode: int, cred: Credentials, now_s: float) -> int:
        """Create a directory; returns its uuid.  Touches Dir + Dirent parts."""
        return self._mkdir(path, mode, cred, now_s, uuid=None)

    def _mkdir(self, path: str, mode: int, cred: Credentials, now_s: float,
               uuid: int | None = None, walked: set | None = None) -> int:
        """mkdir body; ``uuid`` supplies a client-reserved id (deferred
        mkdir, LocoFS-A), ``walked`` a batch-local ACL-walk memo."""
        if self.track_touches:
            self._touch("mkdir", "dir", "dirent")
        path = pathutil.normalize(path)
        if path == "/":
            raise Exists(path)
        parent, name = pathutil.split(path)
        if walked is None:
            self._acl_walk(path, cred)
        elif parent not in walked:
            # batch-local memo: entries under an already-walked parent
            # re-use its ancestor checks (one request, one resolution)
            self._acl_walk(path, cred)
            walked.update(pathutil.ancestors(path))
            walked.add(parent)
        pmeta = self._meta.get(parent)
        if pmeta is None:
            raise NoEntry(parent)
        pmode, puid, pgid, puuid = pmeta
        if not may_access(pmode, puid, pgid, cred, W_OK | X_OK):
            raise PermissionDenied(parent)
        store = self.store
        key = _I + path.encode()
        if store.get(key) is not None:
            if uuid is not None and self._meta.get(path, (0, 0, 0, -1))[3] == uuid:
                # replay of an already-applied deferred mkdir (a retried
                # flush after a dropped response): same client-reserved
                # uuid means it is this very mkdir — report success
                return uuid
            raise Exists(path)
        if uuid is None:
            uuid = self._allocate_uuid()
        dmode = S_IFDIR | (mode & 0o7777)
        # positional pack, field order per Table 1: ctime/mode/uid/gid/uuid
        store.put(key, DIR_INODE.pack_values(now_s, dmode, cred.uid, cred.gid, uuid))
        store.put(_E + uuid.to_bytes(8, "big"), b"")
        # backward dirent: this directory's entry joins the parent's subdir list
        store.append(_E + puuid.to_bytes(8, "big"),
                     dirent.pack_entry(name, uuid, FileType.DIRECTORY))
        self._meta[path] = (dmode, cred.uid, cred.gid, uuid)
        return uuid

    def op_reserve_uuids(self, n: int) -> tuple[int, int]:
        """Reserve ``n`` contiguous directory uuids for client-side
        assignment (deferred mkdir, LocoFS-A).  One ceiling check covers
        the whole range, same durability contract as ``_allocate_uuid``:
        after a restart no reserved id is ever handed out again.  Returns
        ``(first_uuid, n)``."""
        if n < 1:
            raise InvalidArgument(n, "need n >= 1")
        alloc = self.alloc
        start = alloc._next_fid
        fid = start + n - 1
        if fid > FID_MASK:
            raise ValueError(f"fid out of range: {fid}")
        alloc._next_fid = fid + 1
        ceiling = self.store.get(self._FID_KEY)
        if ceiling is None or fid > int.from_bytes(ceiling, "big"):
            self.store.put(self._FID_KEY, (fid + self.FID_RESERVE).to_bytes(8, "big"))
        self.counters.inc("uuids.reserved", n)
        return (alloc.sid << FID_BITS) | start, n

    def op_apply_batch(self, entries: tuple) -> list:
        """Apply a write-behind batch of deferred directory updates.

        Each entry is a tagged tuple — ``("mkdir", path, mode, cred,
        now_s, uuid)`` with a client-reserved uuid, or ``("dsetattr",
        path, cred, now_s, mode, uid, gid)``.  Entries apply in order;
        per-entry failures are reported positionally (``{"err": name,
        "arg": str}``) instead of failing the batch, because the issuing
        ops were acknowledged long ago (write-behind).  The engine wraps
        the dispatch in :meth:`group_commit`, so the whole batch is one
        WAL fsync.
        """
        results: list = []
        walked: set = set()
        for e in entries:
            kind = e[0]
            try:
                if kind == "mkdir":
                    _, path, mode, cred, now_s, uuid = e
                    results.append(
                        {"uuid": self._mkdir(path, mode, cred, now_s,
                                             uuid=uuid, walked=walked)})
                elif kind == "dsetattr":
                    _, path, cred, now_s, mode, uid, gid = e
                    self.op_setattr(path, cred, now_s, mode, uid, gid)
                    # the memo's verdicts predate this change: a later
                    # mkdir must re-check ancestors it may have revoked
                    walked.clear()
                    results.append({"ok": True})
                else:
                    raise InvalidArgument(kind, "unknown deferred DMS op")
            except FSError as err:
                results.append({"err": type(err).__name__, "arg": str(err)})
        self.counters.inc("batch.records", len(entries))
        return results

    def op_lookup(self, path: str, cred: Credentials) -> dict:
        """Resolve a directory for a client (the cacheable d-inode).

        Performs the full ancestor ACL walk server-side — the reason one
        DMS round trip suffices for any file operation (§3.1).
        """
        if self.track_touches:
            self._touch("lookup", "dir")
        path = pathutil.normalize(path)
        self._acl_walk(path, cred)
        buf = self.store.get(_I + path.encode())
        if buf is None:
            raise NoEntry(path)
        mode, uid, gid, uuid = self._meta[path]
        return {
            "path": path,
            "uuid": uuid,
            "mode": mode,
            "uid": uid,
            "gid": gid,
            "ctime": DIR_INODE.read(buf, "ctime"),
        }

    def op_stat(self, path: str, cred: Credentials) -> dict:
        if self.track_touches:
            self._touch("getattr_dir", "dir")
        return self.op_lookup(path, cred)

    def op_readdir(self, path: str, cred: Credentials) -> tuple[int, bytes]:
        """Return (uuid, concatenated subdir dirents)."""
        if self.track_touches:
            self._touch("readdir", "dir", "dirent")
        path = pathutil.normalize(path)
        self._acl_walk(path, cred)
        store = self.store
        if store.get(_I + path.encode()) is None:
            raise NoEntry(path)
        uuid = self._meta[path][3]
        return uuid, store.get(_E + uuid.to_bytes(8, "big")) or b""

    def op_rmdir(self, path: str, cred: Credentials) -> int:
        """Remove an *empty* directory (no subdirs; the client has already
        confirmed no files exist on any FMS).  Returns the removed uuid."""
        if self.track_touches:
            self._touch("rmdir", "dir", "dirent")
        path = pathutil.normalize(path)
        if path == "/":
            raise InvalidArgument(path, "cannot remove root")
        self._acl_walk(path, cred)
        store = self.store
        key = _I + path.encode()
        if store.get(key) is None:
            raise NoEntry(path)
        meta = self._meta
        uuid = meta[path][3]
        parent, name = pathutil.split(path)
        pmode, puid, pgid, puuid = meta[parent]
        if not may_access(pmode, puid, pgid, cred, W_OK | X_OK):
            raise PermissionDenied(parent)
        ekey = _E + uuid.to_bytes(8, "big")
        if store.get(ekey):  # any bytes = at least one subdir entry
            raise NotEmpty(path)
        store.delete(key)
        store.delete(ekey)
        pkey = _E + puuid.to_bytes(8, "big")
        newbuf, _ = dirent.remove_entry(store.get(pkey) or b"", name)
        store.put(pkey, newbuf)
        del meta[path]
        return uuid

    def op_setattr(self, path: str, cred: Credentials, now_s: float, mode: int | None = None,
                   uid: int | None = None, gid: int | None = None) -> None:
        """chmod/chown on a directory: in-place field writes, no reserialization."""
        if self.track_touches:
            self._touch("chmod_dir" if mode is not None else "chown_dir", "dir")
        path = pathutil.normalize(path)
        self._acl_walk(path, cred)
        key = _ikey(path)
        if self.store.get(key) is None:
            raise NoEntry(path)
        omode, ouid, ogid, uuid = self._meta[path]
        if not cred.is_root and cred.uid != ouid:
            raise PermissionDenied(path)
        if mode is not None:
            omode = (omode & ~0o7777) | (mode & 0o7777)
            self.store.write_at(key, DIR_INODE.offset("mode"), DIR_INODE.encode_field("mode", omode))
        if uid is not None:
            ouid = uid
            self.store.write_at(key, DIR_INODE.offset("uid"), DIR_INODE.encode_field("uid", uid))
        if gid is not None:
            ogid = gid
            self.store.write_at(key, DIR_INODE.offset("gid"), DIR_INODE.encode_field("gid", gid))
        self.store.write_at(key, DIR_INODE.offset("ctime"), DIR_INODE.encode_field("ctime", now_s))
        self._meta[path] = (omode, ouid, ogid, uuid)

    def op_rename(self, old: str, new: str, cred: Credentials) -> int:
        """d-rename: contiguous prefix move of descendant d-inodes (§3.4).

        Files and data blocks are indexed by uuid and do not move.  Returns
        the number of descendant directory records relocated (excluding the
        renamed directory itself).
        """
        if self.track_touches:
            self._touch("rename_dir", "dir", "dirent")
        old = pathutil.normalize(old)
        new = pathutil.normalize(new)
        if old == "/" or new == "/":
            raise InvalidArgument(old, "cannot rename root")
        if old == new:
            return 0
        if pathutil.is_ancestor(old, new):
            raise InvalidArgument(new, "cannot move a directory into itself")
        self._acl_walk(old, cred)
        self._acl_walk(new, cred)
        buf = self.store.get(_ikey(old))
        if buf is None:
            raise NoEntry(old)
        uuid = self._meta[old][3]
        if self.store.get(_ikey(new)) is not None:
            raise Exists(new)
        old_parent, old_name = pathutil.split(old)
        new_parent, new_name = pathutil.split(new)
        npmeta = self._meta.get(new_parent)
        if npmeta is None:
            raise NoEntry(new_parent)
        # move the directory's own record
        self.store.delete(_ikey(old))
        self.store.put(_ikey(new), buf)
        # move all descendant directory records: one contiguous prefix in
        # the B+-tree; a full scan in the hash store (Fig. 14 contrast)
        moved = self.store.move_prefix(
            _I + pathutil.dir_key_prefix(old).encode(), _I + pathutil.dir_key_prefix(new).encode()
        )
        # fix parent dirent lists
        opmeta = self._meta[old_parent]
        pbuf = self.store.get(_ekey(opmeta[3])) or b""
        pbuf, _ = dirent.remove_entry(pbuf, old_name)
        self.store.put(_ekey(opmeta[3]), pbuf)
        self.store.append(_ekey(npmeta[3]), dirent.pack_entry(new_name, uuid, FileType.DIRECTORY))
        # refresh the in-memory mirror
        self._meta[new] = self._meta.pop(old)
        old_prefix = pathutil.dir_key_prefix(old)
        for p in [p for p in self._meta if p.startswith(old_prefix)]:
            self._meta[pathutil.dir_key_prefix(new) + p[len(old_prefix):]] = self._meta.pop(p)
        self.counters.inc("rename.dirs_moved", moved + 1)
        return moved

    def op_exists(self, path: str) -> bool:
        return self.store.get(_ikey(pathutil.normalize(path))) is not None

    # -- introspection (tests / reporting, not part of the RPC surface) ---------------
    def num_directories(self) -> int:
        return len(self._meta)
