"""LocoClient — the client library (``locolib``) of LocoFS (paper §3.1).

Directory operations go to the single DMS; file operations go to the FMS
chosen by consistent hashing on ``directory_uuid + file_name``; data
operations go straight to the object store.  The client keeps a lease-based
cache of d-inodes (§3.2.2): with a warm cache a file create touches exactly
one FMS — the 1-RPC fast path behind the paper's latency and scalability
results.
"""

from __future__ import annotations

from collections.abc import Generator
from itertools import count

from repro.common import errors as errmod
from repro.common import pathutil
from repro.common.errors import (
    Exists,
    FSError,
    IsADirectory,
    NoEntry,
    NotEmpty,
    PermissionDenied,
    ServerDown,
)
from repro.common.types import Credentials, DirEntry, ROOT_CRED, StatResult
from repro.fsbase import FSClientBase
from repro.metadata import dirent as de
from repro.metadata.acl import R_OK, W_OK, X_OK, may_access
from repro.metadata.chash import ConsistentHashRing
from repro.metadata.lease import LeaseCache
from repro.sim.rpc import Batch, Mark, Parallel, Rpc, SpanCapture

from .objectstore import BlockPlacement

DMS = "dms"


def _write_dir_attrs(info: dict, mode: int | None, uid: int | None,
                     gid: int | None) -> None:
    """Write a directory setattr's fields into a cached d-inode as the DMS
    writes them: the permission bits of ``mode``, the owner, the group."""
    if mode is not None:
        info["mode"] = (info["mode"] & ~0o7777) | (mode & 0o7777)
    if uid is not None:
        info["uid"] = uid
    if gid is not None:
        info["gid"] = gid


class LocoClient(FSClientBase):
    """One logical client with its own directory-metadata cache."""

    def __init__(
        self,
        engine,
        fms_names: list[str],
        placement: BlockPlacement,
        cred: Credentials = ROOT_CRED,
        cache_enabled: bool = True,
        lease_seconds: float = 30.0,
        cache_capacity: int = 65536,
        block_size: int = 4096,
        strict_collisions: bool = False,
        client_id: int = 0,
    ):
        super().__init__(engine, cred)
        #: unique per deployment: keys the servers' exactly-once sessions
        self.client_id = client_id
        #: see ClusterConfig.strict_collisions — cross-keyspace name checks
        self.strict_collisions = strict_collisions
        self.fms_names = list(fms_names)
        self.ring = ConsistentHashRing(nodes=self.fms_names)
        self.placement = placement
        self.cache_enabled = cache_enabled
        self.dcache: LeaseCache[dict] = LeaseCache(lease_seconds, cache_capacity)
        self.block_size = block_size
        #: (dir_uuid, name) -> FMS: the ring's own memoized lookup, bound
        #: once so a placement costs one frame (the ring clears its memo
        #: on every membership change)
        self._fms_for = self.ring.lookup_file
        #: last parent (mode, uid, gid) that passed the write check — the
        #: create-path memo (the verdict depends only on these + cred,
        #: and cred is fixed per client)
        self._perm_ok: tuple | None = None
        #: the single-RPC file ops may inline ``_g_dir`` (the dcache probe
        #: and the DMS lookup) only when the subclass has not rerouted it
        #: (MultiDMSClient resolves against a different server set)
        self._dir_inline = type(self)._g_dir is LocoClient._g_dir

    # -- directory resolution (cache or one DMS RPC) ------------------------------------
    def _g_dir(self, path: str) -> Generator:
        """Resolve a directory's d-inode, via the lease cache when enabled."""
        path = pathutil.normalize(path)
        observed = self._engine.obs_detailed
        if self.cache_enabled:
            hit = self.dcache.get(path, self._clock.now)
            if hit is not None:
                if observed:
                    yield Mark("client.cache.hit", {"path": path})
                return hit
        info = yield Rpc(DMS, "lookup", (path, self.cred))
        if self.cache_enabled:
            self.dcache.put(path, info, self._clock.now)
            if observed:
                yield Mark("client.cache.miss", {"path": path})
        return info

    def _g_dir_exists(self, path: str) -> Generator:
        """Probe the directory service for a name (strict-collision checks)."""
        return (yield Rpc(DMS, "exists", (path,)))

    def _cache_dir(self, info: dict) -> None:
        if self.cache_enabled:
            self.dcache.put(info["path"], info, self._clock.now)

    def _check_parent_write(self, info: dict) -> None:
        """Creating/removing an entry needs W+X on the parent directory.

        The d-inode (cached or freshly fetched) carries mode/uid/gid, so the
        check happens client-side without an extra DMS round trip.
        """
        if not may_access(info["mode"], info["uid"], info["gid"], self.cred, W_OK | X_OK):
            raise PermissionDenied(info["path"])

    # -- directory ops -----------------------------------------------------------------
    def _g_mkdir(self, path: str, mode: int = 0o755) -> Generator:
        now = self._clock.now / 1_000_000.0
        path = pathutil.normalize(path)
        if self.strict_collisions and path != "/":
            parent, name = pathutil.split(path)
            info = yield from self._g_dir(parent)
            fms = self._fms_for(info["uuid"], name)
            file_exists = yield Rpc(fms, "exists", (info["uuid"], name))
            if file_exists:
                raise Exists(path)
        uuid = yield Rpc(DMS, "mkdir", (path, mode, self.cred, now))
        self._cache_dir(
            {"path": path, "uuid": uuid, "mode": 0o040000 | (mode & 0o7777),
             "uid": self.cred.uid, "gid": self.cred.gid, "ctime": now}
        )
        return uuid

    def _g_rmdir(self, path: str) -> Generator:
        path = pathutil.normalize(path)
        if self._dir_inline and not (self.cache_enabled and self._engine.obs_detailed):
            info = self.dcache.get(path, self._clock.now) if self.cache_enabled else None
            if info is None:
                info = yield Rpc(DMS, "lookup", (path, self.cred))
                if self.cache_enabled:
                    self.dcache.put(path, info, self._clock.now)
        else:
            info = yield from self._g_dir(path)
        # the DMS cannot see file dirents; every FMS must confirm it holds
        # none (§4.2.1 observation 3 — the cost of the flattened tree)
        answers = yield Parallel(
            [Rpc(name, "has_files", (info["uuid"],)) for name in self.fms_names]
        )
        if any(answers):
            raise NotEmpty(path)
        yield Rpc(DMS, "rmdir", (path, self.cred))
        self.dcache.invalidate(path)

    def _g_readdir(self, path: str) -> Generator:
        path = pathutil.normalize(path)
        info = yield from self._g_dir(path)
        uuid = info["uuid"]
        results = yield Parallel(
            [Rpc(DMS, "readdir", (path, self.cred))]
            + [Rpc(name, "readdir", (uuid,)) for name in self.fms_names]
        )
        _, subdirs = results[0]
        entries: list[DirEntry] = list(de.iter_entries(subdirs))
        for buf in results[1:]:
            entries.extend(de.iter_entries(buf))
        entries.sort(key=lambda e: e.name)
        return entries

    def _g_stat_dir(self, path: str) -> Generator:
        path = pathutil.normalize(path)
        if self._dir_inline and not (self.cache_enabled and self._engine.obs_detailed):
            info = self.dcache.get(path, self._clock.now) if self.cache_enabled else None
            if info is None:
                info = yield Rpc(DMS, "lookup", (path, self.cred))
                if self.cache_enabled:
                    self.dcache.put(path, info, self._clock.now)
        else:
            info = yield from self._g_dir(path)
        return StatResult(
            st_mode=info["mode"], st_uid=info["uid"], st_gid=info["gid"],
            st_size=0, st_ctime=info["ctime"], st_mtime=info["ctime"],
            st_atime=info["ctime"], st_uuid=info["uuid"],
        )

    # -- file ops ------------------------------------------------------------------------
    def _g_create(self, path: str, mode: int = 0o644) -> Generator:
        clock = self._clock
        t = clock.now
        now = t / 1_000_000.0  # == self.now_s
        parent, name = pathutil.split_fast(path)
        if not name:
            raise Exists(path)
        # directory resolution, inlined here and in every single-RPC file
        # op: unless Marks must flow (a lease cache under a tracer or
        # metrics), the dcache probe and the lookup RPC are exactly
        # ``_g_dir`` minus its frame — ``parent`` is already normalized,
        # and the single ``get`` keeps the hit/miss stats identical
        if self._dir_inline and not (self.cache_enabled and self._engine.obs_detailed):
            info = self.dcache.get(parent, t) if self.cache_enabled else None
            if info is None:
                info = yield Rpc(DMS, "lookup", (parent, self.cred))
                if self.cache_enabled:
                    self.dcache.put(parent, info, clock.now)
        else:
            info = yield from self._g_dir(parent)
        perm = (info["mode"], info["uid"], info["gid"])
        if perm != self._perm_ok:  # memo: same parent ACL, same verdict
            self._check_parent_write(info)
            self._perm_ok = perm
        if self.strict_collisions:
            dir_exists = yield from self._g_dir_exists(pathutil.join(parent, name))
            if dir_exists:
                raise IsADirectory(path)
        fms = self._fms_for(info["uuid"], name)
        try:
            uuid = yield Rpc(fms, "create", (info["uuid"], name, mode, self.cred, now,
                                             self.block_size))
        except Exists:  # the FMS names the file by its bare name
            raise Exists(path) from None
        return uuid

    def _g_stat_file(self, path: str) -> Generator:
        parent, name = pathutil.split_fast(path)
        if self._dir_inline and not (self.cache_enabled and self._engine.obs_detailed):
            info = self.dcache.get(parent, self._clock.now) if self.cache_enabled else None
            if info is None:
                info = yield Rpc(DMS, "lookup", (parent, self.cred))
                if self.cache_enabled:
                    self.dcache.put(parent, info, self._clock.now)
        else:
            info = yield from self._g_dir(parent)
        fms = self._fms_for(info["uuid"], name)
        try:
            attrs = yield Rpc(fms, "getattr", (info["uuid"], name))
        except NoEntry:
            raise NoEntry(pathutil.join(parent, name)) from None
        # the positional reply, in layout order (FileMetadataServer.op_getattr)
        ctime, mode, uid, gid, mtime, atime, size, bsize, suuid, _ = attrs
        return StatResult(mode, uid, gid, size, ctime, mtime, atime, bsize, suuid)

    def _g_stat(self, path: str) -> Generator:
        path = pathutil.normalize(path)
        if path == "/":
            return (yield from self._g_stat_dir(path))
        try:
            return (yield from self._g_stat_file(path))
        except (NoEntry, IsADirectory):
            return (yield from self._g_stat_dir(path))

    def _g_open(self, path: str, want: int = R_OK) -> Generator:
        parent, name = pathutil.split_fast(path)
        if self._dir_inline and not (self.cache_enabled and self._engine.obs_detailed):
            info = self.dcache.get(parent, self._clock.now) if self.cache_enabled else None
            if info is None:
                info = yield Rpc(DMS, "lookup", (parent, self.cred))
                if self.cache_enabled:
                    self.dcache.put(parent, info, self._clock.now)
        else:
            info = yield from self._g_dir(parent)
        fms = self._fms_for(info["uuid"], name)
        try:
            handle = yield Rpc(fms, "open", (info["uuid"], name, self.cred, want))
        except NoEntry:
            raise NoEntry(pathutil.join(parent, name)) from None
        handle["path"] = pathutil.normalize(path)
        return handle

    def _g_unlink(self, path: str) -> Generator:
        parent, name = pathutil.split(path)
        if self._dir_inline and not (self.cache_enabled and self._engine.obs_detailed):
            info = self.dcache.get(parent, self._clock.now) if self.cache_enabled else None
            if info is None:
                info = yield Rpc(DMS, "lookup", (parent, self.cred))
                if self.cache_enabled:
                    self.dcache.put(parent, info, self._clock.now)
        else:
            info = yield from self._g_dir(parent)
        self._check_parent_write(info)
        fms = self._fms_for(info["uuid"], name)
        try:
            removed = yield Rpc(fms, "remove", (info["uuid"], name, self.cred))
        except NoEntry:
            raise NoEntry(pathutil.join(parent, name)) from None
        if removed["size"] > 0:
            # the file's blocks are computed from its size, not searched for
            yield self.placement.cut(((removed, 0),))

    def _g_setattr(self, path: str, attrs: dict) -> Generator:
        """chmod/chown body, written once for every synchronous client.

        A path may name a file *and* a directory (split keyspaces, see
        ``ClusterConfig.strict_collisions``); the kind order is fixed
        here: the file first, the directory only on ``NoEntry``."""
        now = self._clock.now / 1_000_000.0
        path = pathutil.normalize(path)
        if path == "/":
            yield from self._g_dir_setattr(path, now, attrs)
            self._wrote_root(now, attrs)
            return
        parent, name = pathutil.split(path)
        if self._dir_inline and not (self.cache_enabled and self._engine.obs_detailed):
            info = self.dcache.get(parent, self._clock.now) if self.cache_enabled else None
            if info is None:
                info = yield Rpc(DMS, "lookup", (parent, self.cred))
                if self.cache_enabled:
                    self.dcache.put(parent, info, self._clock.now)
        else:
            info = yield from self._g_dir(parent)
        fms = self._fms_for(info["uuid"], name)
        try:
            yield Rpc(fms, "setattr", (info["uuid"], name, self.cred, now), attrs)
        except NoEntry:
            yield from self._g_dir_setattr(path, now, attrs)
            self.dcache.invalidate(path)

    def _g_dir_setattr(self, path: str, now: float, attrs: dict) -> Generator:
        """The directory half of chmod/chown (rerouted by MultiDMSClient)."""
        yield Rpc(DMS, "setattr", (path, self.cred, now), attrs)

    def _wrote_root(self, now: float, attrs: dict) -> None:
        """Read-your-writes after a durable root setattr: the cached root
        d-inode takes what the DMS wrote.  Dropping it instead would cost
        every later resolution from this client a DMS round trip."""
        root = self.dcache.get("/", self._clock.now) if self.cache_enabled else None
        if root is not None:
            _write_dir_attrs(root, attrs.get("mode"), attrs.get("uid"), attrs.get("gid"))
            root["ctime"] = now

    def _g_chmod(self, path: str, mode: int) -> Generator:
        return self._g_setattr(path, {"mode": mode})

    def _g_chown(self, path: str, uid: int, gid: int) -> Generator:
        return self._g_setattr(path, {"uid": uid, "gid": gid})

    def _g_access(self, path: str, want: int = R_OK) -> Generator:
        path = pathutil.normalize(path)
        parent, name = pathutil.split(path)
        if path == "/":
            info = yield from self._g_dir(path)
            return may_access(info["mode"], info["uid"], info["gid"], self.cred, want)
        if self._dir_inline and not (self.cache_enabled and self._engine.obs_detailed):
            info = self.dcache.get(parent, self._clock.now) if self.cache_enabled else None
            if info is None:
                info = yield Rpc(DMS, "lookup", (parent, self.cred))
                if self.cache_enabled:
                    self.dcache.put(parent, info, self._clock.now)
        else:
            info = yield from self._g_dir(parent)
        fms = self._fms_for(info["uuid"], name)
        try:
            return (yield Rpc(fms, "access", (info["uuid"], name, self.cred, want)))
        except NoEntry:
            dinfo = yield from self._g_dir(path)
            return may_access(dinfo["mode"], dinfo["uid"], dinfo["gid"], self.cred, want)

    def _g_truncate(self, path: str, size: int) -> Generator:
        now = self._clock.now / 1_000_000.0
        parent, name = pathutil.split(path)
        if self._dir_inline and not (self.cache_enabled and self._engine.obs_detailed):
            info = self.dcache.get(parent, self._clock.now) if self.cache_enabled else None
            if info is None:
                info = yield Rpc(DMS, "lookup", (parent, self.cred))
                if self.cache_enabled:
                    self.dcache.put(parent, info, self._clock.now)
        else:
            info = yield from self._g_dir(parent)
        fms = self._fms_for(info["uuid"], name)
        try:
            old = yield Rpc(fms, "truncate", (info["uuid"], name, size, now))
        except NoEntry:
            raise NoEntry(pathutil.join(parent, name)) from None
        if size < old["size"]:
            # no block may lie past the size: a shrink cuts the tail off
            # (a grow needs nothing, the new range reads as a hole)
            yield self.placement.cut(((old, size),))

    # -- rename (§3.4) ---------------------------------------------------------------------
    def _g_rename(self, old: str, new: str) -> Generator:
        """rename body for every synchronous client.  Kind order: the
        file first, the directory (``_g_rename_dir``) only when the
        source FMS holds no such file — no kind probe on a file rename."""
        old = pathutil.normalize(old)
        new = pathutil.normalize(new)
        if old == new:
            return
        if new == "/":  # not a name a file can take
            raise IsADirectory(new)
        if not (yield from self._g_rename_file(old, new)):
            yield from self._g_rename_dir(old, new)

    def _g_rename_dir(self, old: str, new: str) -> Generator:
        """d-rename (rerouted by MultiDMSClient and AsyncLocoClient)."""
        yield Rpc(DMS, "rename", (old, new, self.cred))
        self.dcache.invalidate(old)
        self.dcache.invalidate_prefix(pathutil.dir_key_prefix(old))

    def _g_rename_file(self, old: str, new: str) -> Generator:
        """f-rename in two RPCs: ``export_remove`` detaches the inode from
        the source FMS, then one ``import`` attaches it on the
        destination's, replacing a durable destination there (owner
        checked before anything mutates).  Only the file metadata object
        relocates; data blocks are keyed by the unchanged uuid and stay
        put (§3.4.2).  Returns False, having mutated nothing, when ``old``
        names no file.  A failed import puts the inode back on its source
        and re-raises, so a crash in the window leaves the file under two
        names at worst, never under none."""
        src_parent, src_name = pathutil.split(old)
        dst_parent, dst_name = pathutil.split(new)
        sinfo = yield from self._g_dir(src_parent)
        dinfo = sinfo if dst_parent == src_parent else (yield from self._g_dir(dst_parent))
        self._check_parent_write(sinfo)
        self._check_parent_write(dinfo)
        suuid, duuid = sinfo["uuid"], dinfo["uuid"]
        src_fms = self._fms_for(suuid, src_name)
        dst_fms = self._fms_for(duuid, dst_name)
        if self.strict_collisions:
            if not (yield Rpc(src_fms, "exists", (suuid, src_name))):
                return False
            if (yield from self._g_dir_exists(new)):
                raise Exists(new)
        try:
            inode = yield Rpc(src_fms, "export_remove", (suuid, src_name, self.cred))
        except NoEntry:
            return False
        access, content = inode["access"], inode["content"]
        try:
            replaced = yield Rpc(dst_fms, "import",
                                 (duuid, dst_name, access, content, self.cred))
        except FSError:
            yield Rpc(src_fms, "import", (suuid, src_name, access, content))
            raise
        if replaced is not None and replaced["size"] > 0:
            yield self.placement.cut(((replaced, 0),))
        return True

    # -- data path ---------------------------------------------------------------------------
    def _g_write(self, path: str, offset: int, data: bytes) -> Generator:
        if offset < 0:
            raise ValueError("negative offset")
        now = self._clock.now / 1_000_000.0
        parent, name = pathutil.split(path)
        info = yield from self._g_dir(parent)
        fms = self._fms_for(info["uuid"], name)
        meta = yield Rpc(fms, "write_meta", (info["uuid"], name, offset + len(data), now))
        uuid, bsize = meta["uuid"], meta["bsize"]
        rpcs = []

        def put_all(blk, payload):
            # fan out to every replica (one copy crosses the uplink per
            # replica, which the engines charge via send_bytes)
            for server in self.placement.replicas_for(uuid, blk):
                rpcs.append(Rpc(server, "put_block", (uuid, blk, payload),
                                send_bytes=len(payload)))

        pos = 0
        while pos < len(data):
            blk = (offset + pos) // bsize
            blk_off = (offset + pos) % bsize
            n = min(bsize - blk_off, len(data) - pos)
            chunk = data[pos : pos + n]
            if n == bsize or (blk_off == 0 and offset + pos + n >= meta["size"]):
                # full block, or a partial block at EOF with no tail data
                put_all(blk, chunk)
            else:
                # partial block: read-modify-write from the primary
                server = self.placement.locate(uuid, blk)
                old = yield Rpc(server, "get_block", (uuid, blk), recv_bytes=bsize)
                buf = bytearray(old.ljust(blk_off + n, b"\x00"))
                buf[blk_off : blk_off + n] = chunk
                put_all(blk, bytes(buf))
            pos += n
        if rpcs:
            yield Parallel(rpcs)
        return len(data)

    def _g_read(self, path: str, offset: int, length: int) -> Generator:
        now = self._clock.now / 1_000_000.0
        parent, name = pathutil.split(path)
        info = yield from self._g_dir(parent)
        fms = self._fms_for(info["uuid"], name)
        meta = yield Rpc(fms, "read_meta", (info["uuid"], name, now))
        uuid, bsize, size = meta["uuid"], meta["bsize"], meta["size"]
        if offset >= size:
            return b""
        length = min(length, size - offset)
        first = offset // bsize
        last = (offset + length - 1) // bsize
        blocks = yield Parallel(
            [Rpc(self.placement.locate(uuid, blk), "get_block", (uuid, blk),
                 recv_bytes=bsize)
             for blk in range(first, last + 1)]
        )
        if self.placement.replicas > 1:
            # degraded-read path: an empty primary answer falls back down
            # the replica chain (a lost block is indistinguishable from a
            # sparse one only if every replica lost it)
            for i, blk in enumerate(range(first, last + 1)):
                if blocks[i]:
                    continue
                for server in self.placement.replicas_for(uuid, blk)[1:]:
                    alt = yield Rpc(server, "get_block", (uuid, blk),
                                    recv_bytes=bsize)
                    if alt:
                        blocks[i] = alt
                        break
        out = bytearray()
        for i, blk in enumerate(range(first, last + 1)):
            chunk = blocks[i].ljust(bsize, b"\x00") if blk < last else blocks[i]
            out += chunk
        start = offset - first * bsize
        result = bytes(out[start : start + length])
        return result.ljust(length, b"\x00") if len(result) < length else result

    # -- cache introspection (tests/experiments) ------------------------------------------------
    @property
    def cache_stats(self) -> dict:
        return {
            "hits": self.dcache.hits,
            "misses": self.dcache.misses,
            "entries": len(self.dcache),
            "hit_rate": self.dcache.hit_rate,
        }


class _Queue:
    """Write-behind state for one server: its deferred updates as tagged
    entry tuples (the ``op_apply_batch`` wire form) in enqueue order, plus
    the bookkeeping the flush and dependency rules need.  A cancelled
    entry stays in place as ``None`` so indices remain stable."""

    __slots__ = ("entries", "paths", "sizes", "guards", "bykey", "dirs",
                 "lease_paths", "nbytes", "live", "oldest_us", "origins",
                 "seq", "in_doubt")

    def __init__(self, now_us: float):
        self.entries: list[tuple | None] = []
        #: the op's path: a deferred error names it, and a setattr's
        #: DMS fallback resolves it
        self.paths: list[str | None] = []
        self.sizes: list[int] = []  # modeled wire size of each entry
        #: entry idx -> uuids of *later* deferred mkdirs of the hint path;
        #: the flush-time DMS fallback must not resolve against those dirs
        #: (the synchronous order would have failed before they existed)
        self.guards: dict[int, set[int]] = {}
        #: entry indices per key — ``(dir_uuid, name)`` on an FMS queue,
        #: the directory path on the DMS queue
        self.bykey: dict = {}
        #: FMS queue: parent dir uuids with entries here; DMS queue: the
        #: uuids its pending mkdirs will create.  An FMS queue depends on
        #: the DMS queue exactly when the two sets intersect.
        self.dirs: set[int] = set()
        self.lease_paths: set[str] = set()  # parent paths for lease piggybacking
        self.nbytes = 0  # modeled request payload of the live entries
        self.live = 0  # entries not cancelled
        self.oldest_us = now_us  # enqueue time of the oldest entry
        self.origins: list = []  # captured op spans of the deferred ops
        self.seq = 0  # the session seq the queue ships under (0: not yet)
        #: ``entries[:in_doubt]`` shipped and may have applied (a flush
        #: re-queued after ``ServerDown``): no later op cancels or rewrites one
        self.in_doubt = 0


#: modeled wire size of one deferred create beyond its name (fixed header:
#: dir uuid, mode, cred, timestamp, block size)
_CREATE_WIRE_BASE = 48

#: ``_oldest_pending_us`` while no queue holds anything: never stale
_NOTHING_PENDING = float("inf")


def _mkexc(name: str, arg) -> FSError:
    """Rebuild a server-reported batched-apply error as an exception."""
    cls = getattr(errmod, name, None)
    if not (isinstance(cls, type) and issubclass(cls, FSError)):
        cls = FSError
    return cls(arg)


class BatchingLocoClient(LocoClient):
    """LocoFS client with a write-behind metadata queue (LocoFS-B).

    File creates are not sent immediately: they are queued per target FMS
    and shipped as one :class:`~repro.sim.rpc.Batch` round trip, so the
    connection switch, the RTT, and the server's per-request overhead
    amortize over the batch while the FMS applies the whole flush under a
    single group commit.  A queue is flushed when it reaches the op or
    byte budget, when its oldest entry exceeds the virtual age bound, or —
    read-your-writes — the moment any operation touches a file that is
    still pending (``readdir``/``rmdir`` flush every queue holding entries
    of that directory).  Every queue a trigger finds due ships in one
    flush round: one fan-out, one round trip.  Deferred errors (duplicate
    create) surface at the flush boundary; a duplicate within the pending
    window is detected client-side.  See DESIGN.md "Batching & group
    commit" for the full consistency-semantics table.

    The queue machinery here — one :class:`_Queue` per server, one
    enqueue, one flush round speaking the whole ``apply_batch`` result
    protocol for every queue it ships, one requeue — is all there is:
    :class:`~repro.core.asyncclient.AsyncLocoClient` only decides which
    further ops enqueue which entry kinds (and adds the DMS as one more
    queued server).
    """

    def __init__(self, *args, batch=None, **kwargs):
        super().__init__(*args, **kwargs)
        from repro.common.config import BatchConfig

        batch = batch if batch is not None else BatchConfig(enabled=True)
        self.batch_max_ops = batch.max_ops
        self.batch_max_bytes = batch.max_bytes
        self.batch_max_age_us = batch.max_age_us
        #: per-server write-behind queues, the DMS's (LocoFS-A) included
        self._pending: dict[str, _Queue] = {}
        #: (dir_uuid, name) -> FMS holding deferred entries for the key.
        #: File keys only — pending directory paths live in the DMS
        #: queue's ``bykey`` — so an empty dict lets ``_g_file_barrier``
        #: return without resolving the parent.
        self._dirty: dict[tuple[int, str], str] = {}
        #: min over queues of ``oldest_us`` (+inf when nothing is pending):
        #: ``_g_flush_stale`` tests "any stale queue?" against this one
        #: float instead of scanning every queue per op.  Queues are
        #: created at the current instant (never older than an existing
        #: one), so only flush/requeue recompute it.
        self._oldest_pending_us = _NOTHING_PENDING
        #: lookup-cache node a flush invalidates touched keys on (LocoFS-A)
        self._cache_node: str | None = None
        #: the fill of this client's last lookup-cache miss, carried by its
        #: next request to the cache node (LocoFS-A).  One slot: every
        #: path that makes a fill first sends a probe, which takes the held
        #: one, or skips its probe only while the slot is empty
        self._fill: tuple | None = None
        #: deferred flush errors beyond the first of each flush (satellite
        #: fix: every conflict is preserved, not just ``exists[0]``)
        self.deferred_errors: list[Exception] = []
        #: flushes re-queued after a ServerDown (write-behind retry path)
        self.flush_requeues = 0
        self._seq = 0  # the last session seq a queue took
        #: shipped flushes by what triggered them
        self.flush_causes = dict.fromkeys(("full", "age", "read", "dep", "drain"), 0)

    # -- write-behind plumbing ---------------------------------------------------------
    @property
    def pending_ops(self) -> int:
        return sum(p.live for p in self._pending.values())

    def _set_queue_gauge(self) -> None:
        metrics = getattr(self._engine, "metrics", None)
        if metrics is not None:
            metrics.gauge("client.batch.queue_depth").set(self.pending_ops)

    def _enq(self, server: str, entry: tuple, wire: int,
             lease_path: str | None = None,
             path_hint: str | None = None) -> _Queue | None:
        """Append one tagged entry to the server's queue: the bookkeeping
        half of an enqueue, a plain call.  Returns the queue when the
        generator half, :meth:`_g_enq_tail`, has work to do (a span
        capture and a gauge update under a tracer or registry, or a full
        queue), else ``None`` — the common case, which costs no frame."""
        pend = self._pending.get(server)
        if pend is None:
            now_us = self._clock.now
            pend = self._pending[server] = _Queue(now_us)
            if now_us < self._oldest_pending_us:
                self._oldest_pending_us = now_us
        idx = len(pend.entries)
        pend.entries.append(entry)
        pend.paths.append(path_hint)
        pend.sizes.append(wire)
        pend.nbytes += wire
        pend.live += 1
        if server == DMS:
            # keyed by path; ``dirs`` collects the uuids its mkdirs create
            pend.bykey.setdefault(entry[1], []).append(idx)
            if entry[0] == "mkdir":
                pend.dirs.add(entry[5])
        else:
            # the file key the entry touches (and a local rename's second)
            key = (entry[1], entry[2])
            pend.bykey.setdefault(key, []).append(idx)
            self._dirty[key] = server
            pend.dirs.add(entry[1])
            if entry[0] == "rename_local":
                key = (entry[3], entry[4])
                pend.bykey.setdefault(key, []).append(idx)
                self._dirty[key] = server
                pend.dirs.add(entry[3])
            pend.lease_paths.add(lease_path)
        if (self._engine.obs_detailed or pend.live >= self.batch_max_ops
                or pend.nbytes >= self.batch_max_bytes):
            return pend
        return None

    def _g_enq_tail(self, server: str, pend: _Queue,
                    capture: bool = True) -> Generator:
        """The generator half of an enqueue (after :meth:`_enq` returned
        the queue): capture the op span, set the queue gauge, flush when
        full.  ``capture=False`` suppresses the capture for follow-up
        entries of an op that already captured its span once (a deferred
        rename re-keys several entries — one link per op span)."""
        if self._engine.obs_detailed:
            if capture:
                yield from self._g_capture_into(pend)
            self._set_queue_gauge()
        if pend.live >= self.batch_max_ops or pend.nbytes >= self.batch_max_bytes:
            yield from self._g_flush_server((server,), "full")

    def _g_capture_into(self, pend: _Queue) -> Generator:
        """Link the current op span to the queue's next flush, the batch
        round trip that eventually carries the op (also used when an op
        *coalesces* into an already-queued entry instead of appending its
        own: its durability still rides that entry's flush)."""
        if self._engine.obs_detailed:
            origin = yield SpanCapture()
            if origin is not None:
                pend.origins.append(origin)

    def _key_occupied(self, server: str, key) -> bool | None:
        """Would this key name an existing file once the queue drains?
        The key's last live entry says; ``None`` when nothing is pending
        for it or the entry proves nothing (durable state decides)."""
        pend = self._pending.get(server)
        idxs = pend.bykey.get(key) if pend is not None else None
        for i in reversed(idxs or ()):
            e = pend.entries[i]
            if e is None:
                continue
            kind = e[0]
            if kind == "create":
                return True
            if kind == "setattr":
                # proves nothing: a chmod of a nonexistent path also queues
                # a setattr (it fails at flush) — let the durable probe decide
                return None
            if kind == "rename_local":
                # destination side: exists only if the rename finds its
                # source, which the client cannot know here — durable probe
                # decides; source side: gone whether the rename succeeds or
                # never had a source to move
                return None if (e[3], e[4]) == key else False
            return False  # unlink / unlink_opt
        return None

    def _g_flush_server(self, servers, reason: str) -> Generator:
        """The one flush round: pop the queues of ``servers``, ship one
        batched ``apply_batch`` round trip per queue in a single fan-out —
        a round of one is a lone :class:`~repro.sim.rpc.Batch` — then
        settle each queue's positional results: deferred errors, the data
        blocks of removed files, the directory fallback of a setattr whose
        name turned out to be a directory.  One block cut (a request per
        owning object server, for every removed file with data) and one
        lookup-cache invalidation close the round.

        Ordering: the DMS queue rides the round unless an FMS queue in it
        holds entries under a still-pending mkdir; then the DMS queue ships
        first, alone (under ``reason`` when it is named, as ``"dep"`` when
        not), and a queue whose directories that ship left non-durable
        stays queued.  Errors: a ``ServerDown`` branch re-queues its own
        queue only; the round's first error is raised once every queue
        has settled, the rest are kept in ``deferred_errors``."""
        pending = self._pending
        errs: list[Exception] = []
        #: a DMS queue re-queued by the ordering ship: dependents wait
        held = None
        dq = pending.get(DMS)
        if dq is not None:
            for server in servers:
                if server == DMS:
                    continue
                pend = pending.get(server)
                if pend is not None and not dq.dirs.isdisjoint(pend.dirs):
                    # creates under a still-pending mkdir must see the
                    # directory exist: the DMS queue ships first, alone
                    try:
                        yield from self._g_flush_server(
                            (DMS,), reason if DMS in servers else "dep")
                    except FSError as ex:
                        errs.append(ex)
                    held = pending.get(DMS)
                    break
        eng = self._engine
        observed = eng.obs_detailed or eng.telemetry is not None  # any sink
        dirty = self._dirty
        #: (server, queue, live indices or None, shipped entries, batch)
        shipped = []
        #: ``_oldest_pending_us`` is recomputed only when the queue that
        #: set it leaves with the round
        oldest = self._oldest_pending_us
        recompute = False
        for server in servers:
            pend = pending.get(server)
            if pend is None or held is not None and (
                    server == DMS or not held.dirs.isdisjoint(pend.dirs)):
                continue
            del pending[server]
            if pend.oldest_us <= oldest:
                recompute = True
            if server != DMS:
                for key in pend.bykey:
                    dirty.pop(key, None)
            entries = pend.entries
            if pend.live == len(entries):
                # nothing cancelled: the queue ships as it stands
                live = None
                ship = tuple(entries)
            else:
                live = [i for i, e in enumerate(entries) if e is not None]
                ship = tuple([entries[i] for i in live])
            if observed:
                yield Mark("client.batch.flush",
                           {"server": server, "n": len(ship), "reason": reason})
            if ship:
                self.flush_causes[reason] += 1
                if not pend.seq:
                    self._seq += 1
                    pend.seq = self._seq
                shipped.append((server, pend, live, ship, Batch(
                    server, [Rpc(server, "apply_batch", (ship, self.client_id, pend.seq),
                                 send_bytes=pend.nbytes)],
                    origins=pend.origins or None)))
        if recompute:
            oldest = _NOTHING_PENDING
            if pending:
                for p in pending.values():
                    if p.oldest_us < oldest:
                        oldest = p.oldest_us
            self._oldest_pending_us = oldest
        if observed:
            self._set_queue_gauge()
        if not shipped:
            outcomes = ()
        elif shipped[0] is shipped[-1]:  # a round of one
            try:
                outcomes = (((yield shipped[0][4]), None),)
            except FSError as ex:
                outcomes = ((None, ex),)
        else:
            outcomes = yield Parallel([q[4] for q in shipped], settle=True)
        # writing under a cached parent piggybacks a lease renewal: the
        # server saw live traffic for the directory, no separate RPC needed
        now = self._clock.now
        renew = self.dcache.renew
        #: (removal reply, 0) of every removed file with data
        cuts: list[tuple] = []
        fkeys: list[tuple] = []
        dpaths: list[str] = []
        for (server, pend, live, ship, _), (results, err) in zip(shipped, outcomes):
            if err is not None:
                if isinstance(err, ServerDown):
                    # the retried attempts all timed out: re-queue this
                    # queue alone, in doubt (its seq gets the server's
                    # cached reply if it applied), and let a later flush
                    # trigger try again; the round's other queues are
                    # durable and settled here
                    self._requeue(server, pend)
                    if observed:
                        yield Mark("client.flush.requeue",
                                   {"server": server, "n": len(ship)})
                errs.append(err)
                continue
            for path in pend.lease_paths:
                renew(path, now)
            for i, e, res in zip(count() if live is None else live, ship, results[0]):
                kind = e[0]
                if "err" in res:
                    err = res["err"]
                    hint = pend.paths[i]
                    if kind == "setattr" and err == "NoEntry" and hint is not None:
                        # same fallback the synchronous chmod/chown path takes:
                        # the name is a directory, so the DMS owns its attrs
                        try:
                            guard = pend.guards.get(i)
                            if guard is not None:
                                # guarded: the dir may only exist because of a
                                # mkdir deferred *after* this setattr — resolve
                                # its identity before touching it
                                dinfo = yield Rpc(DMS, "lookup", (hint, e[3]))
                                if dinfo["uuid"] in guard:
                                    raise NoEntry(hint)
                            yield Rpc(DMS, "setattr", (hint, e[3], e[4]),
                                      {"mode": e[5], "uid": e[6], "gid": e[7]})
                            self.dcache.invalidate(hint)
                            dpaths.append(hint)
                        except FSError as ex:
                            errs.append(ex)
                    else:
                        if kind == "mkdir":
                            # the optimistic d-cache entry was wrong: drop it
                            self.dcache.invalidate(e[1])
                        # the caller's path where the op left one (a file
                        # server knows only the bare name), else the server's
                        errs.append(_mkexc(err, hint or res.get("arg")))
                elif kind == "create" or kind == "mkdir":
                    continue
                elif kind == "setattr":
                    fkeys.append((server, e[1], e[2]))
                elif kind == "dsetattr":
                    dpaths.append(e[1])
                elif kind == "rename_local":
                    replaced = res["replaced"]
                    if replaced is not None and replaced["size"] > 0:
                        cuts.append((replaced, 0))
                    fkeys.append((server, e[1], e[2]))
                    fkeys.append((server, e[3], e[4]))
                else:  # unlink / unlink_opt
                    removed = res["removed"]
                    if removed is not None and removed["size"] > 0:
                        cuts.append((removed, 0))
                    fkeys.append((server, e[1], e[2]))
        if cuts:
            yield self.placement.cut(cuts)
        if self._cache_node is not None and (fkeys or dpaths):
            # coherence: invalidate once every batch of the round is
            # durable, before the round returns — no reader can observe
            # the new state earlier.  A held fill rides along, applied first
            fill, self._fill = self._fill, None
            yield Rpc(self._cache_node, "invalidate",
                      (tuple(fkeys), tuple(dpaths), self._clock.now, fill))
        if errs:
            # deferred errors surface at the round's end: the first aborts
            # the flushing op, the rest are preserved in
            # ``deferred_errors`` instead of being silently dropped
            rest = errs[1:]
            if rest:
                self._keep_deferred(rest)
                if observed:
                    yield Mark("client.flush.deferred_errors",
                               {"n": len(rest), "reason": reason})
            raise errs[0]

    def _keep_deferred(self, errs: list[Exception]) -> None:
        """Preserve deferred errors that no op raises."""
        if errs:
            self.deferred_errors.extend(errs)
            metrics = getattr(self._engine, "metrics", None)
            if metrics is not None:
                metrics.counter("client.deferred_errors").inc(len(errs))

    def _requeue(self, server: str, pend: _Queue) -> None:
        """Put a failed flush back, in doubt, at the head of the server's
        queue, ahead of anything queued since: the merged queue ships
        under its seq.  ``oldest_us`` stays the failed flush's own: the
        age bound keeps counting from the oldest entry's enqueue, so the
        next op retries an overdue queue."""
        pend.in_doubt = len(pend.entries)
        cur = self._pending.get(server)
        if cur is not None:
            off = len(pend.entries)
            pend.entries.extend(cur.entries)
            pend.paths.extend(cur.paths)
            pend.sizes.extend(cur.sizes)
            for key, idxs in cur.bykey.items():
                pend.bykey.setdefault(key, []).extend(i + off for i in idxs)
            for i, g in cur.guards.items():
                pend.guards.setdefault(i + off, set()).update(g)
            pend.dirs.update(cur.dirs)
            pend.lease_paths.update(cur.lease_paths)
            pend.nbytes += cur.nbytes
            pend.live += cur.live
            pend.origins.extend(cur.origins)
        self._pending[server] = pend
        if pend.oldest_us < self._oldest_pending_us:
            self._oldest_pending_us = pend.oldest_us
        if server != DMS:
            for key in pend.bykey:
                self._dirty[key] = server
        self.flush_requeues += 1

    def _g_flush_stale(self) -> Generator:
        """One round over every queue whose oldest entry exceeds the age
        bound."""
        if not self._pending:
            return
        now = self._clock.now
        limit = self.batch_max_age_us
        if now - self._oldest_pending_us < limit:
            return  # the oldest queue is fresh, so every queue is
        due = []
        for server, p in self._pending.items():
            if now - p.oldest_us >= limit:
                due.append(server)
        yield from self._g_flush_server(due, "age")

    def _g_flush(self) -> Generator:
        """Drain every queue in one round (end of a run, or an explicit
        flush()), the DMS queue named first.  Every queue ships even when
        another reported a deferred error or was requeued after
        ``ServerDown``; the first error is raised once all have settled,
        the rest are kept in ``deferred_errors``."""
        if self._pending:
            yield from self._g_flush_server(
                sorted(self._pending, key=lambda s: s != DMS), "drain")

    def flush(self) -> None:
        """Synchronously drain the write-behind queue."""
        self._run(self._g_flush())

    def _g_flush_key(self, dir_uuid: int, name: str) -> Generator:
        server = self._dirty.get((dir_uuid, name))
        if server is not None:
            yield from self._g_flush_server((server,), "read")

    def _g_flush_dir(self, dir_uuid: int) -> Generator:
        """The readdir/rmdir barrier: one round over every queue holding
        entries of the directory, and the DMS queue (LocoFS-A), whose
        pending mkdirs the DMS cannot list or count yet."""
        tainted = []
        for server, p in self._pending.items():
            if server == DMS or dir_uuid in p.dirs:
                tainted.append(server)
        if tainted:
            yield from self._g_flush_server(tainted, "read")

    def _g_file_barrier(self, path: str) -> Generator:
        """Read-your-writes: flush before any op touching a possibly-dirty
        file key.  The parent resolution below is served by the directory
        cache on the overridden op's own lookup, so the barrier costs no
        extra round trip on the warm path."""
        yield from self._g_flush_stale()
        if not self._dirty:
            return
        parent, name = pathutil.split_fast(path)
        info = yield from self._g_dir(parent)
        yield from self._g_flush_key(info["uuid"], name)

    # -- deferred create ----------------------------------------------------------------
    def _g_create(self, path: str, mode: int = 0o644) -> Generator:
        clock = self._clock
        if clock.now - self._oldest_pending_us >= self.batch_max_age_us:
            yield from self._g_flush_stale()
        now = clock.now / 1_000_000.0
        parent, name = pathutil.split_fast(path)
        if not name:
            raise Exists(path)
        info = yield from self._g_dir(parent)
        perm = (info["mode"], info["uid"], info["gid"])
        if perm != self._perm_ok:  # memo: same parent ACL, same verdict
            self._check_parent_write(info)
            self._perm_ok = perm
        if self.strict_collisions:
            dir_exists = yield from self._g_dir_exists(pathutil.join(parent, name))
            if dir_exists:
                raise IsADirectory(path)
        dir_uuid = info["uuid"]
        server = self._fms_for(dir_uuid, name)
        if self._key_occupied(server, (dir_uuid, name)):
            # the queue already ends with this file existing: a duplicate
            # create inside the pending window fails client-side, exactly
            # as the server-side probe would at flush time
            raise Exists(path)
        pend = self._enq(
            server, ("create", dir_uuid, name, mode, self.cred, now, self.block_size),
            _CREATE_WIRE_BASE + len(name), info["path"], path)
        if pend is not None:
            yield from self._g_enq_tail(server, pend)
        # deferred: the uuid is not known until the batch is flushed
        return None

    # -- read-your-writes barriers on every other op ---------------------------------------
    def _g_stat_file(self, path: str) -> Generator:
        yield from self._g_file_barrier(path)
        return (yield from super()._g_stat_file(path))

    def _g_stat(self, path: str) -> Generator:
        yield from self._g_file_barrier(path)
        return (yield from super()._g_stat(path))

    def _g_stat_dir(self, path: str) -> Generator:
        yield from self._g_flush_stale()
        return (yield from super()._g_stat_dir(path))

    def _g_open(self, path: str, want: int = R_OK) -> Generator:
        yield from self._g_file_barrier(path)
        return (yield from super()._g_open(path, want))

    def _g_unlink(self, path: str) -> Generator:
        yield from self._g_file_barrier(path)
        return (yield from super()._g_unlink(path))

    def _g_setattr(self, path: str, attrs: dict) -> Generator:
        yield from self._g_file_barrier(path)
        return (yield from super()._g_setattr(path, attrs))

    def _g_access(self, path: str, want: int = R_OK) -> Generator:
        yield from self._g_file_barrier(path)
        return (yield from super()._g_access(path, want))

    def _g_truncate(self, path: str, size: int) -> Generator:
        yield from self._g_file_barrier(path)
        return (yield from super()._g_truncate(path, size))

    def _g_write(self, path: str, offset: int, data: bytes) -> Generator:
        yield from self._g_file_barrier(path)
        return (yield from super()._g_write(path, offset, data))

    def _g_read(self, path: str, offset: int, length: int) -> Generator:
        yield from self._g_file_barrier(path)
        return (yield from super()._g_read(path, offset, length))

    def _g_rename(self, old: str, new: str) -> Generator:
        # both names' read-your-writes barriers, in one round
        yield from self._g_flush_stale()
        if self._dirty:
            owners = []
            for path in (old, new):
                parent, name = pathutil.split_fast(path)
                info = yield from self._g_dir(parent)
                server = self._dirty.get((info["uuid"], name))
                if server is not None:
                    owners.append(server)
            if owners:
                yield from self._g_flush_server(owners, "read")
        return (yield from super()._g_rename(old, new))

    def _g_mkdir(self, path: str, mode: int = 0o755) -> Generator:
        yield from self._g_flush_stale()
        if self.strict_collisions and self._dirty:
            # the mkdir probe must see a pending file of the same name
            p = pathutil.normalize(path)
            if p != "/":
                parent, name = pathutil.split(p)
                info = yield from self._g_dir(parent)
                yield from self._g_flush_key(info["uuid"], name)
        return (yield from super()._g_mkdir(path, mode))

    def _g_readdir(self, path: str) -> Generator:
        yield from self._g_flush_stale()
        if self._pending:
            info = yield from self._g_dir(pathutil.normalize(path))
            yield from self._g_flush_dir(info["uuid"])
        return (yield from super()._g_readdir(path))

    def _g_rmdir(self, path: str) -> Generator:
        yield from self._g_flush_stale()
        if self._pending:
            info = yield from self._g_dir(pathutil.normalize(path))
            yield from self._g_flush_dir(info["uuid"])
        return (yield from super()._g_rmdir(path))
