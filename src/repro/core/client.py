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

#: bound on the per-client (dir_uuid, name) -> FMS placement memo
_PLACEMENT_CACHE_MAX = 65536


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
    ):
        super().__init__(engine, cred)
        #: see ClusterConfig.strict_collisions — cross-keyspace name checks
        self.strict_collisions = strict_collisions
        self.fms_names = list(fms_names)
        self.ring = ConsistentHashRing()
        for name in self.fms_names:
            self.ring.add_node(name)
        self.placement = placement
        self.cache_enabled = cache_enabled
        self.dcache: LeaseCache[dict] = LeaseCache(lease_seconds, cache_capacity)
        self.block_size = block_size
        #: (dir_uuid, name) -> FMS, valid for one ring version: building
        #: the placement key and hashing it dominate the warm-cache create
        #: path, and the answer only changes when ring membership does
        self._placement_cache: dict[tuple[int, str], str] = {}
        self._placement_ring_version = self.ring.version
        #: last parent (mode, uid, gid) that passed the write check — the
        #: create-path memo (the verdict depends only on these + cred,
        #: and cred is fixed per client)
        self._perm_ok: tuple | None = None
        #: the create/stat hot paths may inline the dcache probe + DMS
        #: lookup only when the subclass has not rerouted ``_g_dir``
        #: (MultiDMSClient resolves against a different server set)
        self._dir_inline = type(self)._g_dir is LocoClient._g_dir

    # -- placement ------------------------------------------------------------------
    def _fms_for(self, dir_uuid: int, name: str) -> str:
        cache = self._placement_cache
        if self._placement_ring_version != self.ring.version:
            cache.clear()
            self._placement_ring_version = self.ring.version
        key = (dir_uuid, name)
        fms = cache.get(key)
        if fms is None:
            fms = self.ring.lookup_file(dir_uuid, name)
            if len(cache) >= _PLACEMENT_CACHE_MAX:
                cache.clear()
            cache[key] = fms
        return fms

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
        # warm-path directory resolution, inlined: when only telemetry (or
        # nothing) is attached no Marks flow, so a dcache probe + the
        # uncached lookup RPC are exactly ``_g_dir`` minus its frame — and
        # the single ``get`` keeps the hit/miss stats identical
        if (self._dir_inline and self.cache_enabled
                and not self._engine.obs_detailed):
            info = self.dcache.get(parent, t)
            if info is None:
                info = yield Rpc(DMS, "lookup", (parent, self.cred))
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
        uuid = yield Rpc(fms, "create", (info["uuid"], name, mode, self.cred, now,
                                         self.block_size))
        return uuid

    def _g_stat_file(self, path: str) -> Generator:
        parent, name = pathutil.split_fast(path)
        if (self._dir_inline and self.cache_enabled
                and not self._engine.obs_detailed):
            clock = self._clock
            info = self.dcache.get(parent, clock.now)
            if info is None:
                info = yield Rpc(DMS, "lookup", (parent, self.cred))
                self.dcache.put(parent, info, clock.now)
        else:
            info = yield from self._g_dir(parent)
        fms = self._fms_for(info["uuid"], name)
        attrs = yield Rpc(fms, "getattr", (info["uuid"], name))
        return StatResult(
            st_mode=attrs["mode"], st_uid=attrs["uid"], st_gid=attrs["gid"],
            st_size=attrs["size"], st_ctime=attrs["ctime"], st_mtime=attrs["mtime"],
            st_atime=attrs["atime"], st_blksize=attrs["bsize"], st_uuid=attrs["suuid"],
        )

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
        info = yield from self._g_dir(parent)
        fms = self._fms_for(info["uuid"], name)
        handle = yield Rpc(fms, "open", (info["uuid"], name, self.cred, want))
        handle["path"] = pathutil.normalize(path)
        return handle

    def _g_unlink(self, path: str) -> Generator:
        parent, name = pathutil.split(path)
        info = yield from self._g_dir(parent)
        self._check_parent_write(info)
        fms = self._fms_for(info["uuid"], name)
        removed = yield Rpc(fms, "remove", (info["uuid"], name, self.cred))
        if removed["size"] > 0:
            # data blocks are found by uuid prefix on every object server
            yield Parallel(
                [Rpc(name_, "delete_file", (removed["uuid"],))
                 for name_ in self.placement.names]
            )

    def _g_setattr(self, path: str, attrs: dict) -> Generator:
        """chmod/chown body, written once for every synchronous client.

        A path may name a file *and* a directory (split keyspaces, see
        ``ClusterConfig.strict_collisions``); the kind order is fixed
        here: the file first, the directory only on ``NoEntry``."""
        now = self._clock.now / 1_000_000.0
        path = pathutil.normalize(path)
        if path == "/":
            yield from self._g_dir_setattr(path, now, attrs)
            return
        parent, name = pathutil.split(path)
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
        info = yield from self._g_dir(parent)
        fms = self._fms_for(info["uuid"], name)
        yield Rpc(fms, "truncate", (info["uuid"], name, size, now))

    # -- rename (§3.4) ---------------------------------------------------------------------
    def _g_rename(self, old: str, new: str) -> Generator:
        old = pathutil.normalize(old)
        new = pathutil.normalize(new)
        if old == new:
            return
        is_dir = yield Rpc(DMS, "exists", (old,))
        if is_dir:
            yield Rpc(DMS, "rename", (old, new, self.cred))
            self.dcache.invalidate(old)
            self.dcache.invalidate_prefix(pathutil.dir_key_prefix(old))
            return
        yield from self._g_rename_file(old, new)

    def _g_rename_file(self, old: str, new: str) -> Generator:
        # f-rename: only the file metadata object relocates; data blocks are
        # keyed by the unchanged uuid and stay put (§3.4.2)
        src_parent, src_name = pathutil.split(old)
        dst_parent, dst_name = pathutil.split(new)
        sinfo = yield from self._g_dir(src_parent)
        dinfo = yield from self._g_dir(dst_parent)
        self._check_parent_write(sinfo)
        self._check_parent_write(dinfo)
        src_fms = self._fms_for(sinfo["uuid"], src_name)
        dst_fms = self._fms_for(dinfo["uuid"], dst_name)
        if self.strict_collisions:
            src_exists = yield Rpc(src_fms, "exists", (sinfo["uuid"], src_name))
            if not src_exists:
                raise NoEntry(old)
            dst_is_dir = yield from self._g_dir_exists(new)
            if dst_is_dir:
                raise Exists(new)
        dst_exists = yield Rpc(dst_fms, "exists", (dinfo["uuid"], dst_name))
        if dst_exists:
            # POSIX rename replaces the destination
            removed = yield Rpc(dst_fms, "remove", (dinfo["uuid"], dst_name, self.cred))
            if removed["size"] > 0:
                yield Parallel(
                    [Rpc(n, "delete_file", (removed["uuid"],)) for n in self.placement.names]
                )
        payload = yield Rpc(src_fms, "export_remove", (sinfo["uuid"], src_name, self.cred))
        yield Rpc(dst_fms, "import", (dinfo["uuid"], dst_name, payload["access"],
                                      payload["content"]))

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
                 "lease_paths", "nbytes", "live", "oldest_us", "origins")

    def __init__(self, now_us: float):
        self.entries: list[tuple | None] = []
        self.paths: list[str | None] = []  # path hint (DMS-fallback setattr)
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
    of that directory).  Deferred errors (duplicate create) surface at the
    flush boundary; a duplicate within the pending window is detected
    client-side.  See DESIGN.md "Batching & group commit" for the full
    consistency-semantics table.

    The queue machinery here — one :class:`_Queue` per server, one
    enqueue, one flush speaking the whole ``apply_batch`` result protocol,
    one requeue — is all there is: :class:`~repro.core.asyncclient.
    AsyncLocoClient` only decides which further ops enqueue which entry
    kinds (and adds the DMS as one more queued server).
    """

    def __init__(self, *args, batch=None, **kwargs):
        super().__init__(*args, **kwargs)
        from repro.common.config import BatchConfig

        batch = batch if batch is not None else BatchConfig(enabled=True)
        self.batch_max_ops = batch.max_ops
        self.batch_max_bytes = batch.max_bytes
        self.batch_max_age_us = batch.max_age_us
        #: directory-uuid pool refill size (deferred mkdir, LocoFS-A)
        self.uuid_reserve = batch.uuid_reserve
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
        #: deferred flush errors beyond the first of each flush (satellite
        #: fix: every conflict is preserved, not just ``exists[0]``)
        self.deferred_errors: list[Exception] = []
        #: flushes re-queued after a ServerDown (write-behind retry path)
        self.flush_requeues = 0
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

    def _g_enq(self, server: str, entry: tuple, wire: int,
               lease_path: str | None = None, path_hint: str | None = None,
               capture: bool = True) -> Generator:
        """Append one tagged entry; capture its span; flush when full.

        ``capture=False`` suppresses the origin capture for follow-up
        entries of an op that already captured its span once (a deferred
        rename re-keys several entries — one link per op span).
        """
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
            # the file keys the entry touches (two for a local rename)
            keys = [(entry[1], entry[2])]
            if entry[0] == "rename_local":
                keys.append((entry[3], entry[4]))
            for key in keys:
                pend.bykey.setdefault(key, []).append(idx)
                self._dirty[key] = server
                pend.dirs.add(key[0])
            pend.lease_paths.add(lease_path)
        if self._engine.obs_detailed:
            if capture:
                yield from self._g_capture_into(pend)
            self._set_queue_gauge()
        if pend.live >= self.batch_max_ops or pend.nbytes >= self.batch_max_bytes:
            yield from self._g_flush_server(server, "full")

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

    def _g_flush_server(self, server: str, reason: str) -> Generator:
        """Ship one server's queue as a single batched ``apply_batch``
        round trip, then settle its positional results: deferred errors,
        the data blocks of removed files, the directory fallback of a
        setattr whose name turned out to be a directory, and the
        lookup-cache invalidation."""
        pending = self._pending
        pend = pending.get(server)
        if pend is None:
            return
        dq = pending.get(DMS)
        if server != DMS and dq is not None and not dq.dirs.isdisjoint(pend.dirs):
            # cross-queue dependency: creates under a still-pending mkdir
            # must see the directory exist — flush the DMS queue first
            yield from self._g_flush_server(DMS, "dep")
        del pending[server]
        oldest = _NOTHING_PENDING
        for p in pending.values():
            if p.oldest_us < oldest:
                oldest = p.oldest_us
        self._oldest_pending_us = oldest
        if server != DMS:
            dirty = self._dirty
            for key in pend.bykey:
                dirty.pop(key, None)
        entries = pend.entries
        live = [i for i, e in enumerate(entries) if e is not None]
        if self._obs_active:
            yield Mark("client.batch.flush",
                       {"server": server, "n": len(live), "reason": reason})
            self._set_queue_gauge()
        if not live:
            return
        self.flush_causes[reason] += 1
        try:
            results = yield Batch(
                server, [Rpc(server, "apply_batch",
                             (tuple([entries[i] for i in live]),),
                             send_bytes=pend.nbytes)],
                origins=pend.origins or None)
        except ServerDown:
            # the retried attempts all timed out: re-queue the whole flush
            # (same entry tuples, so the eventual redelivery deduplicates
            # server-side) and let a later flush trigger try again
            self._requeue(server, pend)
            if self._obs_active:
                yield Mark("client.flush.requeue",
                           {"server": server, "n": len(live)})
            raise
        # writing under a cached parent piggybacks a lease renewal: the
        # server saw live traffic for the directory, no separate RPC needed
        now = self._clock.now
        for path in pend.lease_paths:
            self.dcache.renew(path, now)
        errs: list[Exception] = []
        blocks: list[int] = []
        fkeys: list[tuple] = []
        dpaths: list[str] = []
        for i, res in zip(live, results[0]):
            e = entries[i]
            kind = e[0]
            err = res.get("err")
            if err is not None:
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
                    errs.append(_mkexc(err, res.get("arg")))
            elif kind == "unlink" or kind == "unlink_opt":
                removed = res["removed"]
                if removed is not None and removed["size"] > 0:
                    blocks.append(removed["uuid"])
                fkeys.append((server, e[1], e[2]))
            elif kind == "setattr":
                fkeys.append((server, e[1], e[2]))
            elif kind == "rename_local":
                replaced = res["replaced"]
                if replaced is not None and replaced["size"] > 0:
                    blocks.append(replaced["uuid"])
                fkeys.append((server, e[1], e[2]))
                fkeys.append((server, e[3], e[4]))
            elif kind == "dsetattr":
                dpaths.append(e[1])
        if blocks:
            # data blocks are found by uuid prefix on every object server
            yield Parallel([Rpc(n, "delete_file", (u,))
                            for u in blocks for n in self.placement.names])
        if self._cache_node is not None and (fkeys or dpaths):
            # coherence: invalidate after the batch is durable, before the
            # flush returns — no reader can observe the new state earlier
            yield Rpc(self._cache_node, "invalidate",
                      (tuple(fkeys), tuple(dpaths), self._clock.now))
        if errs:
            # deferred errors surface at the flush boundary: the first
            # aborts the flushing op, the rest are preserved in
            # ``deferred_errors`` instead of being silently dropped
            rest = errs[1:]
            if rest:
                self.deferred_errors.extend(rest)
                metrics = getattr(self._engine, "metrics", None)
                if metrics is not None:
                    metrics.counter("client.deferred_errors").inc(len(rest))
                if self._obs_active:
                    yield Mark("client.flush.deferred_errors",
                               {"server": server, "n": len(rest)})
            raise errs[0]

    def _requeue(self, server: str, pend: _Queue) -> None:
        """Put a failed flush back at the head of the server's queue,
        ahead of anything queued since.  ``oldest_us`` stays the failed
        flush's own: the age bound keeps counting from the oldest entry's
        enqueue, so the next op retries an overdue queue."""
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
        """Flush every queue whose oldest entry exceeds the age bound."""
        if not self._pending:
            return
        now = self._clock.now
        limit = self.batch_max_age_us
        if now - self._oldest_pending_us < limit:
            return  # the oldest queue is fresh, so every queue is
        dq = self._pending.get(DMS)
        if dq is not None and now - dq.oldest_us >= limit:
            # directories first, and the clock re-read after that round
            # trip: an FMS queue it made stale is flushed by this op
            yield from self._g_flush_server(DMS, "age")
            now = self._clock.now
        stale = [s for s, p in self._pending.items() if now - p.oldest_us >= limit]
        for server in stale:
            yield from self._g_flush_server(server, "age")

    def _g_flush(self) -> Generator:
        """Drain every queue (end of a run, or an explicit flush()),
        the DMS queue first."""
        if DMS in self._pending:
            yield from self._g_flush_server(DMS, "drain")
        for server in list(self._pending):
            yield from self._g_flush_server(server, "drain")

    def flush(self) -> None:
        """Synchronously drain the write-behind queue."""
        self._run(self._g_flush())

    def _g_flush_key(self, dir_uuid: int, name: str) -> Generator:
        server = self._dirty.get((dir_uuid, name))
        if server is not None:
            yield from self._g_flush_server(server, "read")

    def _g_flush_dir(self, dir_uuid: int) -> Generator:
        tainted = [s for s, p in self._pending.items() if dir_uuid in p.dirs]
        for server in tainted:
            yield from self._g_flush_server(server, "read")

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
        yield from self._g_flush_stale()
        now = self._clock.now / 1_000_000.0
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
        yield from self._g_enq(
            server, ("create", dir_uuid, name, mode, self.cred, now, self.block_size),
            _CREATE_WIRE_BASE + len(name), info["path"])
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
        yield from self._g_file_barrier(old)
        yield from self._g_file_barrier(new)
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
