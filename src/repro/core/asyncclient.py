"""AsyncLocoClient — dependency-aware asynchronous metadata updates
(the LocoFS-A variant) plus the hot-entry lookup-cache tier.

Extends :class:`~repro.core.client.BatchingLocoClient` write-behind from
create-only to **mkdir, unlink, rename-file, setattr and chmod/chown**,
backed by a per-key dependency graph over the pending queues:

* an unlink after a deferred create *annihilates* both in-queue (a
  ``unlink_opt`` remove-if-exists entry still ships, clearing any durable
  same-name file so the final state matches the synchronous order);
* repeated setattr/chmod/chown on one key coalesce to the last write
  (field merge; a chmod on a pending create rewrites the create's mode);
* a deferred mkdir assigns a client-reserved uuid (one ``reserve_uuids``
  RPC buys :attr:`~repro.common.config.BatchConfig.uuid_reserve` of them)
  and warms the d-cache immediately, so creates under it defer too; when
  an FMS queue holding such creates flushes, the DMS queue flushes first
  (cross-queue ordering);
* any read touching a dirty key forces exactly the dependent flush
  (read-your-writes), inherited from the batching client's barriers.

Entries that cannot be proven reorderable stay in enqueue order inside
their server queue — per-key sequential application on the server is what
makes the deferred schedule state-equivalent to the synchronous one (see
DESIGN §11 for the exact rules).

The lookup-cache tier (when the deployment enables it) is a single
Fletch-style node on the network path, reachable in
``CostModel.switch_rtt_us``.  Reads probe it first (getattr/open/access/
lookup), fill it on a miss with the issue-time of the backing read, and
writers invalidate touched keys as part of their flushes — before the
flush generator returns, which together with the cache's anti-stale fill
rejection guarantees zero stale reads (``repro.core.lookupcache``).
"""

from __future__ import annotations

from collections.abc import Generator

from repro.common import errors as errmod
from repro.common import pathutil
from repro.common.errors import Exists, FSError, NoEntry, ServerDown
from repro.common.types import StatResult
from repro.metadata.acl import R_OK, W_OK, X_OK, may_access
from repro.metadata.layout import FILE_ACCESS, FILE_CONTENT
from repro.sim.rpc import Batch, Mark, Parallel, Rpc, SpanCapture

from .client import DMS, BatchingLocoClient, _CREATE_WIRE_BASE

#: modeled wire size of a deferred non-create FMS entry beyond its name
_OP_WIRE_BASE = 40
#: modeled wire size of a deferred DMS entry beyond its path
_DIR_WIRE_BASE = 56

S_IFDIR = 0o040000


def _mkexc(name: str, arg) -> FSError:
    """Rebuild a server-reported batched-apply error as an exception."""
    cls = getattr(errmod, name, None)
    if not (isinstance(cls, type) and issubclass(cls, FSError)):
        cls = FSError
    return cls(arg)


class _AsyncQueue:
    """Write-behind state for one FMS: tagged entry tuples plus the
    per-key index needed by the dependency rules.  Tombstoned entries
    stay in place as ``None`` so indices remain stable."""

    __slots__ = ("entries", "paths", "sizes", "bykey", "dirs", "lease_paths",
                 "nbytes", "oldest_us", "origins", "guards")

    def __init__(self, now_us: float):
        self.entries: list[tuple | None] = []
        self.paths: list[str | None] = []   # path hint (DMS-fallback setattr)
        #: entry idx -> uuids of *later* deferred mkdirs of the hint path;
        #: the flush-time DMS fallback must not resolve against those dirs
        #: (the synchronous order would have failed before they existed)
        self.guards: dict[int, set[int]] = {}
        self.sizes: list[int] = []
        self.bykey: dict[tuple[int, str], list[int]] = {}
        self.dirs: set[int] = set()
        self.lease_paths: set[str] = set()
        self.nbytes = 0
        self.oldest_us = now_us
        self.origins: list = []


class AsyncLocoClient(BatchingLocoClient):
    """LocoFS client deferring *all* small metadata updates (LocoFS-A)."""

    def __init__(self, *args, batch=None, lookup_cache_node: str | None = None,
                 **kwargs):
        super().__init__(*args, batch=batch, **kwargs)
        self._cache_node = lookup_cache_node
        self.uuid_reserve = self._batch_cfg_reserve(batch)
        #: client-reserved directory uuid pool [next, end)
        self._uuid_next = 0
        self._uuid_end = 0
        #: deferred DMS entries (mkdir / dsetattr), in order
        self._dms_entries: list[tuple] = []
        self._dms_dirty: dict[str, list[int]] = {}
        self._dms_nbytes = 0
        self._dms_oldest_us = float("inf")
        self._dms_origins: list = []
        #: uuid -> path of every not-yet-durable deferred mkdir
        self._pending_dir_uuids: dict[int, str] = {}
        # dependency-graph telemetry (asserted by the invariant tests)
        self.annihilations = 0
        self.coalesced = 0
        self.deferred_renames = 0

    @staticmethod
    def _batch_cfg_reserve(batch) -> int:
        if batch is not None and getattr(batch, "uuid_reserve", 0):
            return batch.uuid_reserve
        return 64

    # -- queue plumbing ------------------------------------------------------------------
    @property
    def pending_ops(self) -> int:
        n = sum(1 for p in self._pending.values() for e in p.entries
                if e is not None)
        return n + len(self._dms_entries)

    def _queue_for(self, server: str) -> _AsyncQueue:
        pend = self._pending.get(server)
        if pend is None:
            now_us = self.now_us
            pend = self._pending[server] = _AsyncQueue(now_us)
            if now_us < self._oldest_pending_us:
                self._oldest_pending_us = now_us
        return pend

    @staticmethod
    def _entry_keys(e: tuple):
        """The file keys an entry touches (two for a local rename)."""
        if e[0] == "rename_local":
            return ((e[1], e[2]), (e[3], e[4]))
        return ((e[1], e[2]),)

    def _last_live(self, server: str, key) -> tuple | None:
        pend = self._pending.get(server)
        if pend is None:
            return None
        idxs = pend.bykey.get(key)
        if not idxs:
            return None
        for i in reversed(idxs):
            e = pend.entries[i]
            if e is not None:
                return e
        return None

    def _key_occupied(self, server: str, key) -> bool | None:
        """Would this key name an existing file once the queue drains?
        ``None`` when nothing is pending for it (durable state decides)."""
        e = self._last_live(server, key)
        if e is None:
            return None
        kind = e[0]
        if kind == "create":
            return True
        if kind == "setattr":
            # proves nothing: a chmod of a nonexistent path also queues a
            # setattr (it fails at flush) — let the durable probe decide
            return None
        if kind == "rename_local":
            # destination side: exists only if the rename finds its source,
            # which the client cannot know here — durable probe decides;
            # source side: gone whether the rename succeeds or never had a
            # source to move
            return None if (e[3], e[4]) == key else False
        return False  # unlink / unlink_opt

    def _g_enq_fms(self, server: str, entry: tuple, wire: int,
                   lease_path: str, path_hint: str | None = None,
                   capture: bool = True) -> Generator:
        """Append one tagged entry; capture its span; flush when full.

        ``capture=False`` suppresses the origin capture for follow-up
        entries of an op that already captured its span once (a deferred
        rename re-keys several entries — one link per op span).
        """
        pend = self._queue_for(server)
        idx = len(pend.entries)
        pend.entries.append(entry)
        pend.paths.append(path_hint)
        pend.sizes.append(wire)
        for key in self._entry_keys(entry):
            pend.bykey.setdefault(key, []).append(idx)
            self._dirty[key] = server
            pend.dirs.add(key[0])
        pend.lease_paths.add(lease_path)
        pend.nbytes += wire
        if self._obs_detailed:
            if capture:
                origin = yield SpanCapture()
                if origin is not None:
                    pend.origins.append(origin)
            self._set_queue_gauge()
        if (sum(1 for e in pend.entries if e is not None) >= self.batch_max_ops
                or pend.nbytes >= self.batch_max_bytes):
            yield from self._g_flush_server(server, "full")

    def _g_capture_into(self, pend: _AsyncQueue) -> Generator:
        """Link the current op span to the queue's next flush.

        Used when an op *coalesces* into an already-queued entry instead
        of appending its own: its durability still rides that entry's
        flush, so analyze must see the batch-flush link.
        """
        if self._obs_detailed:
            origin = yield SpanCapture()
            if origin is not None:
                pend.origins.append(origin)
        return None

    def _tombstone(self, pend: _AsyncQueue, key) -> None:
        """Dead-mark every live entry of ``key`` (annihilation / move)."""
        idxs = pend.bykey.pop(key, None)
        if not idxs:
            self._dirty.pop(key, None)
            return
        for i in idxs:
            e = pend.entries[i]
            if e is None:
                continue
            pend.entries[i] = None
            pend.nbytes -= pend.sizes[i]
        self._dirty.pop(key, None)

    # -- flush (FMS queues + the DMS queue) ---------------------------------------------
    def _g_flush_server(self, server: str, reason: str) -> Generator:
        if server == DMS:
            return (yield from self._g_flush_dms(reason))
        pend = self._pending.get(server)
        if pend is None:
            return None
        # cross-queue dependency: creates under a still-pending mkdir must
        # see the directory exist — flush the DMS queue first
        if self._dms_entries and not self._pending_dir_uuids.keys().isdisjoint(pend.dirs):
            yield from self._g_flush_dms("dep")
        pend = self._pending.pop(server, None)
        if pend is None:
            return None
        self._oldest_pending_us = min(
            (p.oldest_us for p in self._pending.values()), default=float("inf"))
        for key in pend.bykey:
            self._dirty.pop(key, None)
        live = [(e, p, pend.guards.get(i))
                for i, (e, p) in enumerate(zip(pend.entries, pend.paths))
                if e is not None]
        if self._obs_active:
            yield Mark("client.batch.flush",
                       {"server": server, "n": len(live), "reason": reason})
            self._set_queue_gauge()
        if not live:
            return None
        entries = tuple(e for e, _, _ in live)
        try:
            results = yield Batch(server, [Rpc(server, "apply_batch", (entries,),
                                               send_bytes=pend.nbytes)],
                                  origins=pend.origins or None)
        except ServerDown:
            self._requeue_async(server, pend)
            if self._obs_active:
                yield Mark("client.flush.requeue",
                           {"server": server, "n": len(live)})
            raise
        now = self.now_us
        for path in pend.lease_paths:
            self.dcache.renew(path, now)
        out = results[0]
        errs: list[Exception] = []
        blocks: list[int] = []
        fkeys: list[tuple] = []
        dpaths: list[str] = []
        for (e, path_hint, guard), res in zip(live, out):
            kind = e[0]
            err = res.get("err")
            if err is not None:
                if kind == "setattr" and err == "NoEntry" and path_hint is not None:
                    # same fallback the synchronous chmod/chown path takes:
                    # the name is a directory, so the DMS owns its attrs
                    try:
                        if guard is not None:
                            # guarded: the dir may only exist because of a
                            # mkdir deferred *after* this setattr — resolve
                            # its identity before touching it
                            dinfo = yield Rpc(DMS, "lookup", (path_hint, e[3]))
                            if dinfo["uuid"] in guard:
                                errs.append(NoEntry(path_hint))
                                continue
                        yield Rpc(DMS, "setattr", (path_hint, e[3], e[4]),
                                  {"mode": e[5], "uid": e[6], "gid": e[7]})
                        self.dcache.invalidate(path_hint)
                        dpaths.append(path_hint)
                    except FSError as ex:
                        errs.append(ex)
                else:
                    errs.append(_mkexc(err, res.get("arg")))
                continue
            if kind in ("unlink", "unlink_opt"):
                removed = res["removed"]
                if removed is not None and removed["size"] > 0:
                    blocks.append(removed["uuid"])
                fkeys.append((server, e[1], e[2]))
            elif kind == "setattr":
                fkeys.append((server, e[1], e[2]))
            elif kind == "rename_local":
                rep = res["replaced"]
                if rep is not None and rep["size"] > 0:
                    blocks.append(rep["uuid"])
                fkeys.append((server, e[1], e[2]))
                fkeys.append((server, e[3], e[4]))
        if blocks:
            yield Parallel([Rpc(n, "delete_file", (u,))
                            for u in blocks for n in self.placement.names])
        if self._cache_node is not None and (fkeys or dpaths):
            # coherence: invalidate after the batch is durable, before the
            # flush returns — no reader can observe the new state earlier
            yield Rpc(self._cache_node, "invalidate",
                      (tuple(fkeys), tuple(dpaths), self.now_us))
        if errs:
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
        return out

    def _requeue_async(self, server: str, pend: _AsyncQueue) -> None:
        """Re-queue a failed flush ahead of anything queued since."""
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
            pend.origins.extend(cur.origins)
        self._pending[server] = pend
        if pend.oldest_us < self._oldest_pending_us:
            self._oldest_pending_us = pend.oldest_us
        for key in pend.bykey:
            self._dirty[key] = server
        self.flush_requeues += 1

    def _g_flush_dms(self, reason: str) -> Generator:
        entries = self._dms_entries
        if not entries:
            return None
        origins = self._dms_origins
        nbytes = self._dms_nbytes
        pending_uuids = self._pending_dir_uuids
        dirty = self._dms_dirty
        self._dms_entries = []
        self._dms_origins = []
        self._dms_dirty = {}
        self._dms_nbytes = 0
        self._dms_oldest_us = float("inf")
        self._pending_dir_uuids = {}
        if self._obs_active:
            yield Mark("client.batch.flush",
                       {"server": DMS, "n": len(entries), "reason": reason})
            self._set_queue_gauge()
        try:
            results = yield Batch(DMS, [Rpc(DMS, "apply_batch", (tuple(entries),),
                                            send_bytes=nbytes)],
                                  origins=origins or None)
        except ServerDown:
            # merge back ahead of anything enqueued since
            off = len(entries)
            for path, idxs in self._dms_dirty.items():
                dirty.setdefault(path, []).extend(i + off for i in idxs)
            entries.extend(self._dms_entries)
            origins.extend(self._dms_origins)
            pending_uuids.update(self._pending_dir_uuids)
            self._dms_entries = entries
            self._dms_origins = origins
            self._dms_dirty = dirty
            self._dms_nbytes = nbytes + self._dms_nbytes
            self._dms_oldest_us = min(self._dms_oldest_us, self.now_us)
            self._pending_dir_uuids = pending_uuids
            self.flush_requeues += 1
            if self._obs_active:
                yield Mark("client.flush.requeue", {"server": DMS, "n": len(entries)})
            raise
        out = results[0]
        errs: list[Exception] = []
        dpaths: list[str] = []
        for e, res in zip(entries, out):
            err = res.get("err")
            if err is not None:
                if e[0] == "mkdir":
                    # the optimistic d-cache entry was wrong: drop it
                    self.dcache.invalidate(e[1])
                errs.append(_mkexc(err, res.get("arg")))
            elif e[0] == "dsetattr":
                dpaths.append(e[1])
        if self._cache_node is not None and dpaths:
            yield Rpc(self._cache_node, "invalidate",
                      ((), tuple(dpaths), self.now_us))
        if errs:
            rest = errs[1:]
            if rest:
                self.deferred_errors.extend(rest)
                metrics = getattr(self._engine, "metrics", None)
                if metrics is not None:
                    metrics.counter("client.deferred_errors").inc(len(rest))
            raise errs[0]
        return out

    def _g_flush_stale(self) -> Generator:
        if self._dms_entries:
            if self.now_us - self._dms_oldest_us >= self.batch_max_age_us:
                yield from self._g_flush_dms("age")
        yield from super()._g_flush_stale()

    def _g_flush(self) -> Generator:
        if self._dms_entries:
            yield from self._g_flush_dms("drain")
        yield from super()._g_flush()

    # -- directory resolution (d-cache -> cache tier -> DMS) ----------------------------
    def _g_dir(self, path: str) -> Generator:
        path = pathutil.normalize(path)
        observed = self._obs_detailed
        if self.cache_enabled:
            hit = self.dcache.get(path, self.now_us)
            if hit is not None:
                if observed:
                    yield Mark("client.cache.hit", {"path": path})
                return hit
        if path in self._dms_dirty:
            # the optimistic d-cache entry of a pending mkdir expired (or
            # the cache is off): make the directory durable, then resolve
            yield from self._g_flush_dms("read")
        if self._cache_node is not None:
            info = yield Rpc(self._cache_node, "lookup", (path, self.cred))
            if info is None:
                t_issue = self.now_us
                info = yield Rpc(DMS, "lookup", (path, self.cred))
                yield Rpc(self._cache_node, "fill_lookup",
                          (path, info, self.cred, t_issue))
        else:
            info = yield Rpc(DMS, "lookup", (path, self.cred))
        if self.cache_enabled:
            self.dcache.put(path, info, self.now_us)
            if observed:
                yield Mark("client.cache.miss", {"path": path})
        return info

    # -- deferred mkdir ------------------------------------------------------------------
    def _g_reserved_uuid(self) -> Generator:
        if self._uuid_next >= self._uuid_end:
            start, n = yield Rpc(DMS, "reserve_uuids", (self.uuid_reserve,))
            self._uuid_next, self._uuid_end = start, start + n
        uuid = self._uuid_next
        self._uuid_next += 1
        return uuid

    def _g_mkdir(self, path: str, mode: int = 0o755) -> Generator:
        if self.strict_collisions:
            # the cross-keyspace probe needs synchronous semantics
            return (yield from super()._g_mkdir(path, mode))
        yield from self._g_flush_stale()
        now = self.now_s
        path = pathutil.normalize(path)
        if path == "/":
            raise Exists(path)
        parent, name = pathutil.split(path)
        info = yield from self._g_dir(parent)
        if not may_access(info["mode"], info["uid"], info["gid"], self.cred,
                          W_OK | X_OK):
            raise errmod.PermissionDenied(parent)
        if path in self._dms_dirty or (
                self.cache_enabled and self.dcache.get(path, self.now_us) is not None):
            raise Exists(path)
        uuid = yield from self._g_reserved_uuid()
        idx = len(self._dms_entries)
        self._dms_entries.append(("mkdir", path, mode, self.cred, now, uuid))
        self._dms_dirty.setdefault(path, []).append(idx)
        self._dms_nbytes += _DIR_WIRE_BASE + len(path)
        if self._dms_oldest_us == float("inf"):
            self._dms_oldest_us = self.now_us
        self._pending_dir_uuids[uuid] = path
        # dependency order for the flush-time DMS fallback: a setattr
        # already queued for this path predates the directory, so it must
        # not chmod the dir this mkdir creates
        for qpend in self._pending.values():
            for i, hint in enumerate(qpend.paths):
                if hint == path and qpend.entries[i] is not None:
                    qpend.guards.setdefault(i, set()).add(uuid)
        # read-your-writes for free: the d-cache serves the new directory
        # immediately, so creates underneath defer without a DMS round trip
        self._cache_dir({"path": path, "uuid": uuid,
                         "mode": S_IFDIR | (mode & 0o7777),
                         "uid": self.cred.uid, "gid": self.cred.gid, "ctime": now})
        if self._obs_detailed:
            origin = yield SpanCapture()
            if origin is not None:
                self._dms_origins.append(origin)
            self._set_queue_gauge()
        if (len(self._dms_entries) >= self.batch_max_ops
                or self._dms_nbytes >= self.batch_max_bytes):
            yield from self._g_flush_dms("full")
        return uuid

    # -- deferred create -----------------------------------------------------------------
    def _g_create(self, path: str, mode: int = 0o644) -> Generator:
        yield from self._g_flush_stale()
        now = self.now_s
        parent, name = pathutil.split_fast(path)
        if not name:
            raise Exists(path)
        info = yield from self._g_dir(parent)
        perm = (info["mode"], info["uid"], info["gid"])
        if perm != self._perm_ok:
            self._check_parent_write(info)
            self._perm_ok = perm
        if self.strict_collisions:
            dir_exists = yield from self._g_dir_exists(pathutil.join(parent, name))
            if dir_exists:
                raise errmod.IsADirectory(path)
        dir_uuid = info["uuid"]
        key = (dir_uuid, name)
        server = self._fms_for(dir_uuid, name)
        if self._key_occupied(server, key):
            # the queue already ends with this file existing — same verdict
            # the server probe would reach at flush time
            raise Exists(path)
        yield from self._g_enq_fms(
            server, ("create", dir_uuid, name, mode, self.cred, now, self.block_size),
            _CREATE_WIRE_BASE + len(name), info["path"])
        return None

    # -- deferred unlink (with create annihilation) --------------------------------------
    def _g_unlink(self, path: str) -> Generator:
        yield from self._g_flush_stale()
        parent, name = pathutil.split(path)
        info = yield from self._g_dir(parent)
        self._check_parent_write(info)
        dir_uuid = info["uuid"]
        key = (dir_uuid, name)
        server = self._fms_for(dir_uuid, name)
        kind = "unlink"
        pend = self._pending.get(server)
        idxs = pend.bykey.get(key) if pend is not None else None
        if idxs:
            live = [pend.entries[i] for i in idxs if pend.entries[i] is not None]
            if (any(e[0] == "create" for e in live)
                    and all(e[0] in ("create", "setattr") for e in live)):
                # annihilation: the deferred create (and its attr updates)
                # never ship; the remove-if-exists still does, clearing any
                # durable same-name file — the synchronous order's end state
                self._tombstone(pend, key)
                self.annihilations += 1
                kind = "unlink_opt"
        yield from self._g_enq_fms(server, (kind, dir_uuid, name, self.cred),
                                   _OP_WIRE_BASE + len(name), info["path"])
        return None

    # -- deferred setattr / chmod / chown (last-write coalescing) ------------------------
    def _g_setattr_any(self, path: str, mode: int | None, uid: int | None,
                       gid: int | None) -> Generator:
        yield from self._g_flush_stale()
        now = self.now_s
        path = pathutil.normalize(path)
        kwargs = {}
        if mode is not None:
            kwargs["mode"] = mode
        if uid is not None:
            kwargs["uid"] = uid
        if gid is not None:
            kwargs["gid"] = gid
        if path == "/":
            yield Rpc(DMS, "setattr", (path, self.cred, now), kwargs)
            if self._cache_node is not None:
                yield Rpc(self._cache_node, "invalidate", ((), (path,), self.now_us))
            return
        dinfo = self.dcache.get(path, self.now_us) if self.cache_enabled else None
        if dinfo is not None or path in self._dms_dirty:
            yield from self._g_dsetattr(path, dinfo, now, mode, uid, gid)
            return
        parent, name = pathutil.split(path)
        info = yield from self._g_dir(parent)
        dir_uuid = info["uuid"]
        key = (dir_uuid, name)
        server = self._fms_for(dir_uuid, name)
        pend = self._pending.get(server)
        idxs = pend.bykey.get(key) if pend is not None else None
        if idxs:
            for i in reversed(idxs):
                e = pend.entries[i]
                if e is None:
                    continue
                if e[0] == "create" and uid is None and gid is None:
                    # chmod folds into the pending create itself
                    pend.entries[i] = e[:3] + (mode,) + e[4:]
                    self.coalesced += 1
                    yield from self._g_capture_into(pend)
                    return
                if e[0] == "setattr":
                    # last-write-wins field merge
                    pend.entries[i] = ("setattr", e[1], e[2], e[3], now,
                                       mode if mode is not None else e[5],
                                       uid if uid is not None else e[6],
                                       gid if gid is not None else e[7])
                    self.coalesced += 1
                    yield from self._g_capture_into(pend)
                    return
                break  # any other kind: order matters, append a fresh entry
        yield from self._g_enq_fms(
            server, ("setattr", dir_uuid, name, self.cred, now, mode, uid, gid),
            _OP_WIRE_BASE + len(name), info["path"], path_hint=path)
        return None

    def _g_dsetattr(self, path: str, dinfo: dict | None, now: float,
                    mode: int | None, uid: int | None, gid: int | None) -> Generator:
        """Deferred directory setattr, coalescing into the DMS queue."""
        entries = self._dms_entries
        idxs = self._dms_dirty.get(path)
        merged = False
        if idxs:
            e = entries[idxs[-1]]
            if e[0] == "mkdir" and uid is None and gid is None:
                entries[idxs[-1]] = e[:2] + (mode,) + e[3:]
                merged = True
            elif e[0] == "dsetattr":
                entries[idxs[-1]] = ("dsetattr", path, e[2], now,
                                     mode if mode is not None else e[4],
                                     uid if uid is not None else e[5],
                                     gid if gid is not None else e[6])
                merged = True
            if merged:
                self.coalesced += 1
                if self._obs_detailed:
                    origin = yield SpanCapture()
                    if origin is not None:
                        self._dms_origins.append(origin)
        if not merged:
            idx = len(entries)
            entries.append(("dsetattr", path, self.cred, now, mode, uid, gid))
            self._dms_dirty.setdefault(path, []).append(idx)
            self._dms_nbytes += _DIR_WIRE_BASE + len(path)
            if self._dms_oldest_us == float("inf"):
                self._dms_oldest_us = self.now_us
            if self._obs_detailed:
                origin = yield SpanCapture()
                if origin is not None:
                    self._dms_origins.append(origin)
        # read-your-writes: the cached d-inode reflects the pending change
        if dinfo is not None:
            if mode is not None:
                dinfo["mode"] = (dinfo["mode"] & ~0o7777) | (mode & 0o7777)
            if uid is not None:
                dinfo["uid"] = uid
            if gid is not None:
                dinfo["gid"] = gid
        if (len(entries) >= self.batch_max_ops
                or self._dms_nbytes >= self.batch_max_bytes):
            yield from self._g_flush_dms("full")
        return None

    def _g_chmod(self, path: str, mode: int) -> Generator:
        return (yield from self._g_setattr_any(path, mode, None, None))

    def _g_chown(self, path: str, uid: int, gid: int) -> Generator:
        return (yield from self._g_setattr_any(path, None, uid, gid))

    # -- deferred rename -----------------------------------------------------------------
    def _g_rename(self, old: str, new: str) -> Generator:
        yield from self._g_flush_stale()
        old = pathutil.normalize(old)
        new = pathutil.normalize(new)
        if old == new:
            return
        if old in self._dms_dirty or (
                self.cache_enabled and self.dcache.get(old, self.now_us) is not None):
            # a (possibly pending) directory: make it durable, t-rename it
            yield from self._g_flush_dms("dep")
            yield from self._g_rename_dir_sync(old, new)
            return
        src_parent, src_name = pathutil.split(old)
        sinfo = yield from self._g_dir(src_parent)
        skey = (sinfo["uuid"], src_name)
        src_fms = self._fms_for(*skey)
        if skey not in self._dirty:
            is_dir = yield Rpc(DMS, "exists", (old,))
            if is_dir:
                yield from self._g_rename_dir_sync(old, new)
                return
        dst_parent, dst_name = pathutil.split(new)
        dinfo = yield from self._g_dir(dst_parent)
        self._check_parent_write(sinfo)
        self._check_parent_write(dinfo)
        dkey = (dinfo["uuid"], dst_name)
        dst_fms = self._fms_for(*dkey)
        pend = self._pending.get(src_fms)
        idxs = pend.bykey.get(skey) if pend is not None else None
        live = ([pend.entries[i] for i in idxs if pend.entries[i] is not None]
                if idxs else [])
        if live and all(e[0] in ("create", "setattr") for e in live) and any(
                e[0] == "create" for e in live):
            # the source only exists in-queue: move its entries client-side,
            # re-keyed to the destination, behind a remove-if-exists that
            # clears any durable destination (POSIX replace semantics)
            self._tombstone(pend, skey)
            self.deferred_renames += 1
            yield from self._g_enq_fms(
                dst_fms, ("unlink_opt", dkey[0], dst_name, self.cred),
                _OP_WIRE_BASE + len(dst_name), dinfo["path"])
            for e in live:
                moved = (e[0], dkey[0], dst_name) + e[3:]
                wire = (_CREATE_WIRE_BASE if e[0] == "create" else _OP_WIRE_BASE)
                yield from self._g_enq_fms(dst_fms, moved, wire + len(dst_name),
                                           dinfo["path"],
                                           path_hint=new if e[0] == "setattr" else None,
                                           capture=False)
            return
        if src_fms == dst_fms:
            # one server holds both keys, so a single deferred entry keeps
            # queue order — any pending entries for either key apply first,
            # exactly the synchronous sequence
            self.deferred_renames += 1
            yield from self._g_enq_fms(
                src_fms, ("rename_local", skey[0], src_name, dkey[0], dst_name,
                          self.cred),
                _OP_WIRE_BASE + len(src_name) + len(dst_name), dinfo["path"])
            return
        # cross-server: flush the dependents, then take the synchronous
        # two-phase export/import path
        yield from self._g_flush_key(*skey)
        yield from self._g_flush_key(*dkey)
        yield from self._g_rename_file(old, new)
        if self._cache_node is not None:
            yield Rpc(self._cache_node, "invalidate",
                      (((src_fms, skey[0], src_name), (dst_fms, dkey[0], dst_name)),
                       (), self.now_us))

    def _g_rename_dir_sync(self, old: str, new: str) -> Generator:
        yield Rpc(DMS, "rename", (old, new, self.cred))
        self.dcache.invalidate(old)
        self.dcache.invalidate_prefix(pathutil.dir_key_prefix(old))
        if self._cache_node is not None:
            yield Rpc(self._cache_node, "invalidate_prefix", (old, self.now_us))

    # -- cached reads (the lookup-cache tier) --------------------------------------------
    def _g_fill_file(self, fms: str, dir_uuid: int, name: str, attrs: dict,
                     issued_at: float) -> Generator:
        a = FILE_ACCESS.pack(ctime=attrs["ctime"], mode=attrs["mode"],
                             uid=attrs["uid"], gid=attrs["gid"])
        c = FILE_CONTENT.pack(mtime=attrs["mtime"], atime=attrs["atime"],
                              size=attrs["size"], bsize=attrs["bsize"],
                              suuid=attrs["suuid"], sid=attrs["sid"])
        yield Rpc(self._cache_node, "fill_file",
                  (fms, dir_uuid, name, a, c, issued_at))

    def _g_getattr_cached(self, fms: str, dir_uuid: int, name: str) -> Generator:
        """Cache-first stat: probe, then authoritative read + fill."""
        attrs = yield Rpc(self._cache_node, "getattr", (fms, dir_uuid, name))
        if attrs is not None:
            return attrs
        t_issue = self.now_us
        attrs = yield Rpc(fms, "getattr", (dir_uuid, name))
        yield from self._g_fill_file(fms, dir_uuid, name, attrs, t_issue)
        return attrs

    def _g_stat_file(self, path: str) -> Generator:
        if self._cache_node is None:
            return (yield from super()._g_stat_file(path))
        yield from self._g_file_barrier(path)
        parent, name = pathutil.split_fast(path)
        info = yield from self._g_dir(parent)
        fms = self._fms_for(info["uuid"], name)
        attrs = yield from self._g_getattr_cached(fms, info["uuid"], name)
        return StatResult(
            st_mode=attrs["mode"], st_uid=attrs["uid"], st_gid=attrs["gid"],
            st_size=attrs["size"], st_ctime=attrs["ctime"], st_mtime=attrs["mtime"],
            st_atime=attrs["atime"], st_blksize=attrs["bsize"], st_uuid=attrs["suuid"],
        )

    def _g_open(self, path: str, want: int = R_OK) -> Generator:
        if self._cache_node is None:
            return (yield from super()._g_open(path, want))
        yield from self._g_file_barrier(path)
        parent, name = pathutil.split_fast(path)
        info = yield from self._g_dir(parent)
        fms = self._fms_for(info["uuid"], name)
        handle = yield Rpc(self._cache_node, "open",
                           (fms, info["uuid"], name, self.cred, want))
        if handle is None:
            t_issue = self.now_us
            attrs = yield Rpc(fms, "getattr", (info["uuid"], name))
            yield from self._g_fill_file(fms, info["uuid"], name, attrs, t_issue)
            if not may_access(attrs["mode"], attrs["uid"], attrs["gid"],
                              self.cred, want):
                raise errmod.PermissionDenied(name)
            handle = {"uuid": attrs["suuid"], "mode": attrs["mode"],
                      "size": attrs["size"]}
        handle["path"] = pathutil.normalize(path)
        return handle

    def _g_access(self, path: str, want: int = R_OK) -> Generator:
        if self._cache_node is None:
            return (yield from super()._g_access(path, want))
        yield from self._g_file_barrier(path)
        path = pathutil.normalize(path)
        if path == "/":
            info = yield from self._g_dir(path)
            return may_access(info["mode"], info["uid"], info["gid"], self.cred, want)
        parent, name = pathutil.split(path)
        info = yield from self._g_dir(parent)
        fms = self._fms_for(info["uuid"], name)
        answer = yield Rpc(self._cache_node, "access",
                           (fms, info["uuid"], name, self.cred, want))
        if answer is not None:
            return answer
        t_issue = self.now_us
        try:
            attrs = yield Rpc(fms, "getattr", (info["uuid"], name))
        except NoEntry:
            dinfo = yield from self._g_dir(path)
            return may_access(dinfo["mode"], dinfo["uid"], dinfo["gid"],
                              self.cred, want)
        yield from self._g_fill_file(fms, info["uuid"], name, attrs, t_issue)
        return may_access(attrs["mode"], attrs["uid"], attrs["gid"], self.cred, want)

    # -- synchronous mutators must invalidate the cache tier -----------------------------
    def _g_inval_file(self, path: str) -> Generator:
        if self._cache_node is None:
            return
        parent, name = pathutil.split_fast(path)
        info = self.dcache.get(pathutil.normalize(parent), self.now_us) \
            if self.cache_enabled else None
        if info is None:
            info = yield from self._g_dir(parent)
        fms = self._fms_for(info["uuid"], name)
        yield Rpc(self._cache_node, "invalidate",
                  (((fms, info["uuid"], name),), (), self.now_us))

    def _g_truncate(self, path: str, size: int) -> Generator:
        out = yield from super()._g_truncate(path, size)
        yield from self._g_inval_file(path)
        return out

    def _g_write(self, path: str, offset: int, data: bytes) -> Generator:
        out = yield from super()._g_write(path, offset, data)
        yield from self._g_inval_file(path)
        return out

    def _g_read(self, path: str, offset: int, length: int) -> Generator:
        out = yield from super()._g_read(path, offset, length)
        # read_meta bumps atime, so a cached getattr would go stale
        yield from self._g_inval_file(path)
        return out

    def _g_readdir(self, path: str) -> Generator:
        if self._dms_entries:
            # pending subdirectory mkdirs are invisible to the DMS readdir
            yield from self._g_flush_dms("read")
        return (yield from super()._g_readdir(path))

    def _g_rmdir(self, path: str) -> Generator:
        if self._dms_entries:
            yield from self._g_flush_dms("read")
        out = yield from super()._g_rmdir(path)
        if self._cache_node is not None:
            yield Rpc(self._cache_node, "invalidate",
                      ((), (pathutil.normalize(path),), self.now_us))
        return out
