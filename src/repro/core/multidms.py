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
"""

from __future__ import annotations

from collections.abc import Generator

from repro.common import pathutil
from repro.common.config import ClusterConfig
from repro.common.errors import Exists, InvalidArgument, NoEntry, NotEmpty, PermissionDenied
from repro.common.types import Credentials, FileType, ROOT_CRED, S_IFDIR
from repro.metadata import dirent as de
from repro.metadata.acl import X_OK, may_access
from repro.metadata.chash import ConsistentHashRing
from repro.metadata.layout import DIR_INODE
from repro.sim.cluster import Cluster
from repro.sim.costmodel import CostModel
from repro.sim.engine import make_engine
from repro.sim.rpc import Parallel, Rpc

from .client import LocoClient
from .dms import DirectoryMetadataServer, _ekey, _ikey
from .fms import FileMetadataServer
from .objectstore import BlockPlacement, ObjectStoreServer

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
        super().__init__(backend=backend, sid=shard_id, wal_path=wal_path)
        self.has_root = has_root
        if not has_root and self.store.get(_ikey("/")) is not None:
            # the base class installs a root; only shard 0 keeps it
            self.store.delete(_ikey("/"))
            from repro.common.uuidgen import ROOT_UUID

            self.store.delete(_ekey(ROOT_UUID))
            self._meta.clear()

    # -- shard-local ops ----------------------------------------------------------
    def op_shard_lookup(self, path: str) -> dict:
        path = pathutil.normalize(path)
        buf = self.store.get(_ikey(path))
        if buf is None:
            raise NoEntry(path)
        return {
            "path": path,
            "uuid": DIR_INODE.read(buf, "uuid"),
            "mode": DIR_INODE.read(buf, "mode"),
            "uid": DIR_INODE.read(buf, "uid"),
            "gid": DIR_INODE.read(buf, "gid"),
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
        omode = DIR_INODE.read(buf, "mode")
        ouid = DIR_INODE.read(buf, "uid")
        ogid = DIR_INODE.read(buf, "gid")
        uuid = DIR_INODE.read(buf, "uuid")
        if not cred.is_root and cred.uid != ouid:
            raise PermissionDenied(path)
        key = _ikey(path)
        if mode is not None:
            omode = (omode & ~0o7777) | (mode & 0o7777)
            self.store.write_at(key, DIR_INODE.offset("mode"),
                                DIR_INODE.encode_field("mode", omode))
        if uid is not None:
            ouid = uid
            self.store.write_at(key, DIR_INODE.offset("uid"),
                                DIR_INODE.encode_field("uid", uid))
        if gid is not None:
            ogid = gid
            self.store.write_at(key, DIR_INODE.offset("gid"),
                                DIR_INODE.encode_field("gid", gid))
        self.store.write_at(key, DIR_INODE.offset("ctime"),
                            DIR_INODE.encode_field("ctime", now_s))
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
            self._meta[path] = (
                DIR_INODE.read(buf, "mode"), DIR_INODE.read(buf, "uid"),
                DIR_INODE.read(buf, "gid"), uuid,
            )

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
        self.dms_ring = ConsistentHashRing()
        for name in self.dms_names:
            self.dms_ring.add_node(name)

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

    def _g_chmod(self, path: str, mode: int) -> Generator:
        now = self.now_s
        path = pathutil.normalize(path)
        parent, name = pathutil.split(path)
        if path == "/":
            yield from self._g_dms_mutate(self._dms_for(path), "shard_setattr",
                                          (path, self.cred, now, mode))
            return
        info = yield from self._g_dir(parent)
        fms = self._fms_for(info["uuid"], name)
        try:
            yield Rpc(fms, "setattr", (info["uuid"], name, self.cred, now), {"mode": mode})
        except NoEntry:
            yield from self._g_dms_mutate(self._dms_for(path), "shard_setattr",
                                          (path, self.cred, now, mode))
            self.dcache.invalidate(path)

    def _g_chown(self, path: str, uid: int, gid: int) -> Generator:
        now = self.now_s
        path = pathutil.normalize(path)
        parent, name = pathutil.split(path)
        if path == "/":
            yield from self._g_dms_mutate(self._dms_for(path), "shard_setattr",
                                          (path, self.cred, now, None, uid, gid))
            return
        info = yield from self._g_dir(parent)
        fms = self._fms_for(info["uuid"], name)
        try:
            yield Rpc(fms, "setattr", (info["uuid"], name, self.cred, now),
                      {"uid": uid, "gid": gid})
        except NoEntry:
            yield from self._g_dms_mutate(self._dms_for(path), "shard_setattr",
                                          (path, self.cred, now, None, uid, gid))
            self.dcache.invalidate(path)

    def _g_rename(self, old: str, new: str) -> Generator:
        old = pathutil.normalize(old)
        new = pathutil.normalize(new)
        if old == new:
            return
        try:
            yield from self._g_dms_read(self._dms_for(old), "shard_lookup", (old,))
            is_dir = True
        except NoEntry:
            is_dir = False
        if not is_dir:
            yield from self._g_rename_file(old, new)
            return
        # d-rename across shards: export everywhere, re-hash, import
        if pathutil.is_ancestor(old, new):
            raise InvalidArgument(new, "cannot move a directory into itself")
        try:
            yield from self._g_dms_read(self._dms_for(new), "shard_lookup", (new,))
            raise Exists(new)
        except NoEntry:
            pass
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


# ---------------------------------------------------------------------------
# facade
# ---------------------------------------------------------------------------


class MultiDMSLocoFS:
    """LocoFS with a hash-partitioned directory metadata service."""

    name = "locofs-mdms"

    def __init__(
        self,
        num_directory_servers: int = 2,
        num_metadata_servers: int = 4,
        num_object_servers: int = 4,
        cost: CostModel | None = None,
        engine_kind: str = "direct",
        cache_enabled: bool = True,
        dms_backend: str = "btree",
        strict_collisions: bool = False,
    ):
        if num_directory_servers < 1:
            raise ValueError("need at least one directory server")
        self.cost = cost or CostModel()
        self.cluster = Cluster(self.cost)
        self.config = ClusterConfig(num_metadata_servers=num_metadata_servers,
                                    num_object_servers=num_object_servers)
        self.dms_names = [f"dms{i}" for i in range(num_directory_servers)]
        self.cache_enabled = cache_enabled
        self.strict_collisions = strict_collisions
        # root lives on the shard the client ring maps "/" to: shard 0
        self.dms_servers: list[DirectoryShardServer] = []
        for i, name in enumerate(self.dms_names):
            server = DirectoryShardServer(shard_id=i, backend=dms_backend,
                                          has_root=(i == 0))
            self.cluster.add(name, server)
            self.dms_servers.append(server)
        self.fms: list[FileMetadataServer] = []
        self.fms_names: list[str] = []
        for i in range(num_metadata_servers):
            server = FileMetadataServer(sid=100 + i, cost=self.cost)
            name = f"fms{i}"
            self.cluster.add(name, server)
            self.fms.append(server)
            self.fms_names.append(name)
        obj_names = []
        self.object_servers: list[ObjectStoreServer] = []
        for i in range(num_object_servers):
            server = ObjectStoreServer(sid=i)
            self.cluster.add(f"obj{i}", server)
            self.object_servers.append(server)
            obj_names.append(f"obj{i}")
        self.placement = BlockPlacement(obj_names)
        self.engine = make_engine(engine_kind, self.cluster, self.cost)

    def client(self, cred: Credentials = ROOT_CRED, engine=None) -> MultiDMSClient:
        return MultiDMSClient(
            engine if engine is not None else self.engine,
            dms_names=self.dms_names,
            fms_names=self.fms_names,
            placement=self.placement,
            cred=cred,
            cache_enabled=self.cache_enabled,
            strict_collisions=self.strict_collisions,
        )

    def total_directories(self) -> int:
        return sum(s.num_directories() for s in self.dms_servers)
