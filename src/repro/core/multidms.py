"""Multi-DMS LocoFS — a future-work extension beyond the paper.

The paper deliberately uses a *single* Directory Metadata Server: one DMS
can hold ~10^8 directories and, crucially, performs the ancestor ACL walk
locally so any file operation needs at most one directory round trip
(§3.1).  The obvious question it leaves open is what a *distributed* DMS
would cost.  This module answers it by implementing one:

* d-inodes are hash-partitioned across DMS servers by full path;
* each directory's subdir-dirent list is sharded backward-style: a child
  directory's dirent lives on the *child's* hash server, co-located with
  its inode (the flattened-tree principle applied across servers);
* the ancestor ACL walk moves to the client: one lookup RPC per uncached
  ancestor — the exact path-traversal cost the single-DMS design avoids;
* readdir/rmdir must consult every DMS shard (as they already consult
  every FMS); d-rename becomes a cross-server export/import.

The ablation benchmark (``benchmarks/test_ablation_multidms.py``) shows
both sides: mkdir/rmdir throughput now scales with DMS count, while
cold-cache deep-path operations pay per-level round trips — quantifying
why the paper's trade-off favours one DMS at supercomputer scales.

This module holds the shard server and the routing client only; a
deployment is built by :class:`~repro.core.fs.LocoFS` from
``ClusterConfig(directory=DirectoryConfig(partitions=N))``, which also
composes :class:`MultiDMSClient` with the write-behind update policy.
"""

from __future__ import annotations

from collections.abc import Generator

from repro.common import pathutil
from repro.common.errors import Exists, InvalidArgument, NoEntry, NotEmpty, PermissionDenied
from repro.common.types import Credentials, FileType, S_IFDIR
from repro.metadata import dirent as de
from repro.metadata.acl import X_OK, may_access
from repro.metadata.chash import ConsistentHashRing
from repro.metadata.layout import DIR_INODE
from repro.sim.rpc import Parallel, Rpc

from .client import LocoClient
from .dms import _D_CTIME, _D_GID, _D_MODE, _D_UID, DirectoryMetadataServer, _ekey, _ikey

# ---------------------------------------------------------------------------
# server side: shard-local operations added onto DirectoryMetadataServer
# ---------------------------------------------------------------------------


class DirectoryShardServer(DirectoryMetadataServer):
    """One shard of a hash-partitioned directory metadata service.

    Unlike the single-DMS ops, shard ops never walk ancestors (they may
    live on other shards — the *client* walks), and parent dirent lists
    are partial: each shard holds the entries of the children hashed to it.
    """

    def __init__(self, shard_id: int, backend: str = "btree", has_root: bool = False,
                 wal_path: str | None = None):
        # set first: the base constructor's _load() seeds ``/`` only on
        # the shard that owns it (the one the client ring maps "/" to)
        self.has_root = has_root
        super().__init__(backend=backend, sid=shard_id, wal_path=wal_path)

    # -- shard-local ops ----------------------------------------------------------
    def op_shard_lookup(self, path: str) -> dict:
        path = pathutil.normalize(path)
        buf = self.store.get(_ikey(path))
        if buf is None:
            raise NoEntry(path)
        mode, uid, gid = DIR_INODE.perm(buf)
        return {
            "path": path,
            "uuid": DIR_INODE.read(buf, "uuid"),
            "mode": mode,
            "uid": uid,
            "gid": gid,
            "ctime": DIR_INODE.read(buf, "ctime"),
        }

    def op_shard_mkdir(self, path: str, mode: int, cred: Credentials, now_s: float,
                       parent_uuid: int) -> int:
        """Create the inode + the child's dirent in the local partial list."""
        path = pathutil.normalize(path)
        if self.store.get(_ikey(path)) is not None:
            raise Exists(path)
        uuid = self._allocate_uuid()
        dmode = S_IFDIR | (mode & 0o7777)
        self.store.put(_ikey(path), DIR_INODE.pack(
            ctime=now_s, mode=dmode, uid=cred.uid, gid=cred.gid, uuid=uuid))
        self.store.put(_ekey(uuid), b"")
        _, name = pathutil.split(path)
        self.store.append(_ekey(parent_uuid), de.pack_entry(name, uuid, FileType.DIRECTORY))
        self._meta[path] = (dmode, cred.uid, cred.gid, uuid)
        return uuid

    def op_shard_subdirs(self, dir_uuid: int) -> bytes:
        """This shard's slice of a directory's subdir dirents."""
        return self.store.get(_ekey(dir_uuid)) or b""

    def op_shard_rmdir(self, path: str, parent_uuid: int, cred: Credentials) -> int:
        path = pathutil.normalize(path)
        buf = self.store.get(_ikey(path))
        if buf is None:
            raise NoEntry(path)
        uuid = DIR_INODE.read(buf, "uuid")
        if self.store.get(_ekey(uuid)):  # any bytes = at least one subdir entry
            raise NotEmpty(path)
        self.store.delete(_ikey(path))
        self.store.delete(_ekey(uuid))
        _, name = pathutil.split(path)
        pbuf = self.store.get(_ekey(parent_uuid)) or b""
        newbuf, _ = de.remove_entry(pbuf, name)
        self.store.put(_ekey(parent_uuid), newbuf)
        self._meta.pop(path, None)
        return uuid

    def op_shard_setattr(self, path: str, cred: Credentials, now_s: float,
                         mode: int | None = None, uid: int | None = None,
                         gid: int | None = None) -> None:
        path = pathutil.normalize(path)
        buf = self.store.get(_ikey(path))
        if buf is None:
            raise NoEntry(path)
        omode, ouid, ogid = DIR_INODE.perm(buf)
        uuid = DIR_INODE.read(buf, "uuid")
        if not cred.is_root and cred.uid != ouid:
            raise PermissionDenied(path)
        key = _ikey(path)
        write_at = self.store.write_at
        if mode is not None:
            omode = (omode & ~0o7777) | (mode & 0o7777)
            write_at(key, _D_MODE.offset, _D_MODE.pack(omode))
        if uid is not None:
            ouid = uid
            write_at(key, _D_UID.offset, _D_UID.pack(uid))
        if gid is not None:
            ogid = gid
            write_at(key, _D_GID.offset, _D_GID.pack(gid))
        write_at(key, _D_CTIME.offset, _D_CTIME.pack(now_s))
        self._meta[path] = (omode, ouid, ogid, uuid)

    # -- rename support ----------------------------------------------------------------
    def op_shard_export(self, root: str) -> list[tuple[str, bytes, bytes]]:
        """Detach (path, inode, subdir-dirent-slice) for every local dir
        at-or-under ``root``."""
        root = pathutil.normalize(root)
        prefix = pathutil.dir_key_prefix(root)
        doomed: list[str] = []
        for key, _ in list(self.store.prefix_scan(_ikey(prefix))):
            doomed.append(key[len(b"I:"):].decode())
        if self.store.get(_ikey(root)) is not None:
            doomed.append(root)
        out = []
        for path in doomed:
            buf = self.store.get(_ikey(path))
            uuid = DIR_INODE.read(buf, "uuid")
            ebuf = self.store.get(_ekey(uuid)) or b""
            self.store.delete(_ikey(path))
            self.store.delete(_ekey(uuid))
            self._meta.pop(path, None)
            out.append((path, buf, ebuf))
        return out

    def op_shard_import(self, records: list[tuple[str, bytes, bytes]]) -> None:
        for path, buf, ebuf in records:
            self.store.put(_ikey(path), buf)
            uuid = DIR_INODE.read(buf, "uuid")
            # MERGE the migrated dirent slice: this shard may already hold
            # its own slice of the same directory's entries (partial lists
            # are keyed by uuid across every shard)
            if ebuf:
                self.store.append(_ekey(uuid), ebuf)
            elif self.store.get(_ekey(uuid)) is None:
                self.store.put(_ekey(uuid), b"")
            self._meta[path] = (*DIR_INODE.perm(buf), uuid)

    def op_shard_unlink_dirent(self, parent_uuid: int, name: str) -> None:
        buf = self.store.get(_ekey(parent_uuid)) or b""
        newbuf, _ = de.remove_entry(buf, name)
        self.store.put(_ekey(parent_uuid), newbuf)

    def op_shard_link(self, parent_uuid: int, name: str, uuid: int) -> None:
        self.store.append(_ekey(parent_uuid), de.pack_entry(name, uuid, FileType.DIRECTORY))


# ---------------------------------------------------------------------------
# client side
# ---------------------------------------------------------------------------


class MultiDMSClient(LocoClient):
    """LocoClient whose directory service is hash-partitioned."""

    def __init__(self, engine, dms_names: list[str], fms_names, placement, **kw):
        super().__init__(engine, fms_names=fms_names, placement=placement, **kw)
        self.dms_names = list(dms_names)
        self.dms_ring = ConsistentHashRing(nodes=self.dms_names)

    def _g_dir_exists(self, path: str) -> Generator:
        try:
            yield from self._g_dms_read(self._dms_for(path), "shard_lookup", (path,))
            return True
        except NoEntry:
            return False

    def _dms_for(self, path: str) -> str:
        """Routing target for ``path``: a server name here, a *partition*
        name in the replicated subclass (which resolves it to the
        partition's current leader)."""
        path = pathutil.normalize(path)
        if path == "/":
            return self.dms_names[0]
        return self.dms_ring.lookup(b"D:" + path.encode())

    # -- DMS transport hooks -------------------------------------------------------
    # Every DMS interaction funnels through these four generators so a
    # subclass can reroute the directory tier (the replicated client sends
    # mutations through its quorum-replicated log and reads through the
    # partition leader) without touching the operation logic.  The default
    # bodies yield exactly the commands the operations used to yield
    # inline, so this client's virtual time is unchanged.

    def _g_dms_read(self, target: str, method: str, args: tuple) -> Generator:
        result = yield Rpc(target, method, args)
        return result

    def _g_dms_mutate(self, target: str, method: str, args: tuple) -> Generator:
        result = yield Rpc(target, method, args)
        return result

    def _g_dms_scatter(self, method: str, args: tuple,
                       extra_rpcs: list) -> Generator:
        """One read on every DMS target plus unrelated RPCs, one fan-out.
        Returns the combined result list (DMS answers first, in
        ``dms_names`` order, then the extras in their given order)."""
        results = yield Parallel(
            [Rpc(n, method, args) for n in self.dms_names] + extra_rpcs)
        return results

    def _g_dms_mutate_scatter(self, method: str, args: tuple) -> Generator:
        """One *mutation* on every DMS target (rename export); returns the
        per-target results in ``dms_names`` order."""
        results = yield Parallel([Rpc(n, method, args) for n in self.dms_names])
        return results

    def _g_dms_import(self, regroup: dict) -> Generator:
        """Deliver rename import batches, keyed by DMS target."""
        yield Parallel([Rpc(n, "shard_import", (recs,))
                        for n, recs in regroup.items()])

    # -- directory resolution: the ACL walk moves to the client ---------------------
    def _g_dir(self, path: str) -> Generator:
        path = pathutil.normalize(path)
        chain = pathutil.ancestors(path) + [path]
        infos = []
        for p in chain:
            info = self.dcache.get(p, self.now_us) if self.cache_enabled else None
            if info is None:
                info = yield from self._g_dms_read(self._dms_for(p),
                                                   "shard_lookup", (p,))
                if self.cache_enabled:
                    self.dcache.put(p, info, self.now_us)
            infos.append(info)
        for p, info in zip(chain[:-1], infos[:-1]):
            if not may_access(info["mode"], info["uid"], info["gid"], self.cred, X_OK):
                raise PermissionDenied(p)
        return infos[-1]

    # -- directory ops -------------------------------------------------------------------
    def _g_mkdir(self, path: str, mode: int = 0o755) -> Generator:
        now = self.now_s
        path = pathutil.normalize(path)
        if path == "/":
            raise Exists(path)
        parent, name = pathutil.split(path)
        pinfo = yield from self._g_dir(parent)
        self._check_parent_write(pinfo)
        if self.strict_collisions:
            fms = self._fms_for(pinfo["uuid"], name)
            file_exists = yield Rpc(fms, "exists", (pinfo["uuid"], name))
            if file_exists:
                raise Exists(path)
        uuid = yield from self._g_dms_mutate(
            self._dms_for(path), "shard_mkdir",
            (path, mode, self.cred, now, pinfo["uuid"]))
        self._cache_dir({"path": path, "uuid": uuid,
                         "mode": S_IFDIR | (mode & 0o7777),
                         "uid": self.cred.uid, "gid": self.cred.gid, "ctime": now})
        return uuid

    def _g_rmdir(self, path: str) -> Generator:
        path = pathutil.normalize(path)
        if path == "/":
            raise InvalidArgument(path, "cannot remove root")
        parent, _ = pathutil.split(path)
        pinfo = yield from self._g_dir(parent)
        self._check_parent_write(pinfo)
        info = yield from self._g_dir(path)
        # emptiness: every DMS shard may hold subdir slices, every FMS files
        answers = yield from self._g_dms_scatter(
            "shard_subdirs", (info["uuid"],),
            [Rpc(n, "has_files", (info["uuid"],)) for n in self.fms_names])
        # a shard's subdir slice (bytes) or an FMS's has_files (bool)
        if any(answers):
            raise NotEmpty(path)
        yield from self._g_dms_mutate(self._dms_for(path), "shard_rmdir",
                                      (path, pinfo["uuid"], self.cred))
        self.dcache.invalidate(path)

    def _g_readdir(self, path: str) -> Generator:
        path = pathutil.normalize(path)
        info = yield from self._g_dir(path)
        uuid = info["uuid"]
        results = yield from self._g_dms_scatter(
            "shard_subdirs", (uuid,),
            [Rpc(n, "readdir", (uuid,)) for n in self.fms_names])
        entries = []
        for buf in results:
            entries.extend(de.iter_entries(buf))
        entries.sort(key=lambda e: e.name)
        return entries

    def _g_dir_setattr(self, path: str, now: float, attrs: dict) -> Generator:
        # positional tail ``(mode)`` / ``(None, uid, gid)``, not a uniform
        # 6-tuple: the replicated client ships the pickled argument tuple
        # as ``send_bytes``, so its length is on the virtual plane
        tail = ((attrs["mode"],) if "mode" in attrs
                else (None, attrs["uid"], attrs["gid"]))
        yield from self._g_dms_mutate(self._dms_for(path), "shard_setattr",
                                      (path, self.cred, now) + tail)

    def _g_rename_dir(self, old: str, new: str) -> Generator:
        # d-rename across shards: export everywhere, re-hash, import
        if not (yield from self._g_dir_exists(old)):
            raise NoEntry(old)
        if pathutil.is_ancestor(old, new):
            raise InvalidArgument(new, "cannot move a directory into itself")
        if (yield from self._g_dir_exists(new)):
            raise Exists(new)
        old_parent, old_name = pathutil.split(old)
        new_parent, new_name = pathutil.split(new)
        sp = yield from self._g_dir(old_parent)
        dp = yield from self._g_dir(new_parent)
        self._check_parent_write(sp)
        self._check_parent_write(dp)
        # the destination may exist as a *file* — invisible to the DMS
        # shards, so it needs its own FMS probe (rename(dir, file) = EEXIST)
        file_exists = yield Rpc(self._fms_for(dp["uuid"], new_name), "exists",
                                (dp["uuid"], new_name))
        if file_exists:
            raise Exists(new)
        exports = yield from self._g_dms_mutate_scatter("shard_export", (old,))
        regroup: dict[str, list] = {}
        moved_uuid = None
        for batch in exports:
            for path, buf, ebuf in batch:
                np = new + path[len(old):]
                if path == old:
                    moved_uuid = DIR_INODE.read(buf, "uuid")
                regroup.setdefault(self._dms_for(np), []).append((np, buf, ebuf))
        if regroup:
            yield from self._g_dms_import(regroup)
        yield from self._g_dms_mutate(self._dms_for(old), "shard_unlink_dirent",
                                      (sp["uuid"], old_name))
        yield from self._g_dms_mutate(self._dms_for(new), "shard_link",
                                      (dp["uuid"], new_name, moved_uuid))
        self.dcache.invalidate(old)
        self.dcache.invalidate_prefix(pathutil.dir_key_prefix(old))

    # generic stat falls back through _g_stat_dir -> _g_dir, already sharded
