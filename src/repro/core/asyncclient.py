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

from repro.common import pathutil
from repro.common.errors import Exists, NoEntry, PermissionDenied
from repro.common.types import StatResult
from repro.metadata.acl import R_OK, W_OK, X_OK, may_access
from repro.metadata.layout import FILE_ACCESS, FILE_CONTENT
from repro.sim.rpc import Mark, Rpc

from .client import DMS, BatchingLocoClient, _CREATE_WIRE_BASE

#: modeled wire size of a deferred non-create FMS entry beyond its name
_OP_WIRE_BASE = 40
#: modeled wire size of a deferred DMS entry beyond its path
_DIR_WIRE_BASE = 56

S_IFDIR = 0o040000


class AsyncLocoClient(BatchingLocoClient):
    """LocoFS client deferring *all* small metadata updates (LocoFS-A).

    The queues, the enqueue and the flush are the batching client's; this
    class decides which ops enqueue which entry kinds, applies the
    dependency rules between queued entries, treats the DMS as one more
    queued server (``self._pending[DMS]``), and adds the lookup-cache
    read tier.
    """

    def __init__(self, *args, lookup_cache_node: str | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self._cache_node = lookup_cache_node
        #: client-reserved directory uuid pool [next, end)
        self._uuid_next = 0
        self._uuid_end = 0
        # dependency-graph telemetry (asserted by the invariant tests)
        self.annihilations = 0
        self.coalesced = 0
        self.deferred_renames = 0

    # -- dependency rules over the queues -------------------------------------------------
    def _dir_pending(self, path: str) -> bool:
        """Does the DMS queue hold a deferred mkdir/setattr of ``path``?"""
        dq = self._pending.get(DMS)
        return dq is not None and path in dq.bykey

    def _queued_only(self, server: str, key) -> list:
        """The key's live entries when the file exists only in-queue — a
        pending create plus its attr updates — else ``[]``."""
        pend = self._pending.get(server)
        idxs = pend.bykey.get(key) if pend is not None else None
        if not idxs:
            return []
        live = [pend.entries[i] for i in idxs if pend.entries[i] is not None]
        if (any(e[0] == "create" for e in live)
                and all(e[0] in ("create", "setattr") for e in live)):
            return live
        return []

    def _tombstone(self, server: str, key) -> None:
        """Dead-mark every live entry of ``key`` (annihilation / move)."""
        pend = self._pending[server]
        for i in pend.bykey.pop(key, ()):
            if pend.entries[i] is not None:
                pend.entries[i] = None
                pend.nbytes -= pend.sizes[i]
                pend.live -= 1
        self._dirty.pop(key, None)

    # -- directory resolution (d-cache -> cache tier -> DMS) ----------------------------
    def _g_dir(self, path: str) -> Generator:
        path = pathutil.normalize(path)
        observed = self._engine.obs_detailed
        if self.cache_enabled:
            hit = self.dcache.get(path, self._clock.now)
            if hit is not None:
                if observed:
                    yield Mark("client.cache.hit", {"path": path})
                return hit
        if self._dir_pending(path):
            # the optimistic d-cache entry of a pending mkdir expired (or
            # the cache is off): make the directory durable, then resolve
            yield from self._g_flush_server(DMS, "read")
        if self._cache_node is not None:
            info = yield Rpc(self._cache_node, "lookup", (path, self.cred))
            if info is None:
                t_issue = self._clock.now
                info = yield Rpc(DMS, "lookup", (path, self.cred))
                yield Rpc(self._cache_node, "fill_lookup",
                          (path, info, self.cred, t_issue))
        else:
            info = yield Rpc(DMS, "lookup", (path, self.cred))
        if self.cache_enabled:
            self.dcache.put(path, info, self._clock.now)
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
        now = self._clock.now / 1_000_000.0
        path = pathutil.normalize(path)
        if path == "/":
            raise Exists(path)
        parent, name = pathutil.split(path)
        info = yield from self._g_dir(parent)
        if not may_access(info["mode"], info["uid"], info["gid"], self.cred,
                          W_OK | X_OK):
            raise PermissionDenied(parent)
        if self._dir_pending(path) or (
                self.cache_enabled and self.dcache.get(path, self._clock.now) is not None):
            raise Exists(path)
        uuid = yield from self._g_reserved_uuid()
        # dependency order for the flush-time DMS fallback: a setattr
        # already queued for this path predates the directory, so it must
        # not chmod the dir this mkdir creates
        for qpend in self._pending.values():
            for i, hint in enumerate(qpend.paths):
                if hint == path and qpend.entries[i] is not None:
                    qpend.guards.setdefault(i, set()).add(uuid)
        # read-your-writes for free: the d-cache serves the new directory
        # immediately, so creates underneath defer without a DMS round trip
        # (cached before the enqueue, whose full-queue flush moves the clock)
        self._cache_dir({"path": path, "uuid": uuid,
                         "mode": S_IFDIR | (mode & 0o7777),
                         "uid": self.cred.uid, "gid": self.cred.gid, "ctime": now})
        yield from self._g_enq(DMS, ("mkdir", path, mode, self.cred, now, uuid),
                               _DIR_WIRE_BASE + len(path))
        return uuid

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
        if self._queued_only(server, key):
            # annihilation: the deferred create (and its attr updates)
            # never ship; the remove-if-exists still does, clearing any
            # durable same-name file — the synchronous order's end state
            self._tombstone(server, key)
            self.annihilations += 1
            kind = "unlink_opt"
        yield from self._g_enq(server, (kind, dir_uuid, name, self.cred),
                               _OP_WIRE_BASE + len(name), info["path"])

    # -- deferred setattr / chmod / chown (last-write coalescing) ------------------------
    def _g_setattr(self, path: str, attrs: dict) -> Generator:
        """Deferred chmod/chown.  Kind order: a path the client knows as a
        directory (cached d-inode or pending mkdir) is one; anything else
        is tried as a file, with the DMS fallback at flush time."""
        yield from self._g_flush_stale()
        now = self._clock.now / 1_000_000.0
        path = pathutil.normalize(path)
        if path == "/":
            yield Rpc(DMS, "setattr", (path, self.cred, now), attrs)
            if self._cache_node is not None:
                yield Rpc(self._cache_node, "invalidate", ((), (path,), self._clock.now))
            return
        mode, uid, gid = attrs.get("mode"), attrs.get("uid"), attrs.get("gid")
        dinfo = self.dcache.get(path, self._clock.now) if self.cache_enabled else None
        if dinfo is not None or self._dir_pending(path):
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
                elif e[0] == "setattr":
                    # last-write-wins field merge
                    pend.entries[i] = ("setattr", e[1], e[2], e[3], now,
                                       mode if mode is not None else e[5],
                                       uid if uid is not None else e[6],
                                       gid if gid is not None else e[7])
                else:
                    break  # any other kind: order matters, append a fresh entry
                self.coalesced += 1
                yield from self._g_capture_into(pend)
                return
        yield from self._g_enq(
            server, ("setattr", dir_uuid, name, self.cred, now, mode, uid, gid),
            _OP_WIRE_BASE + len(name), info["path"], path_hint=path)

    def _g_dsetattr(self, path: str, dinfo: dict | None, now: float,
                    mode: int | None, uid: int | None, gid: int | None) -> Generator:
        """Deferred directory setattr, coalescing into the DMS queue."""
        # read-your-writes: the cached d-inode reflects the pending change
        if dinfo is not None:
            if mode is not None:
                dinfo["mode"] = (dinfo["mode"] & ~0o7777) | (mode & 0o7777)
            if uid is not None:
                dinfo["uid"] = uid
            if gid is not None:
                dinfo["gid"] = gid
        dq = self._pending.get(DMS)
        idxs = dq.bykey.get(path) if dq is not None else None
        if idxs:
            e = dq.entries[idxs[-1]]
            merged = None
            if e[0] == "mkdir" and uid is None and gid is None:
                merged = e[:2] + (mode,) + e[3:]
            elif e[0] == "dsetattr":
                merged = ("dsetattr", path, e[2], now,
                          mode if mode is not None else e[4],
                          uid if uid is not None else e[5],
                          gid if gid is not None else e[6])
            if merged is not None:
                dq.entries[idxs[-1]] = merged
                self.coalesced += 1
                yield from self._g_capture_into(dq)
                return
        yield from self._g_enq(DMS, ("dsetattr", path, self.cred, now, mode, uid, gid),
                               _DIR_WIRE_BASE + len(path))

    # -- deferred rename -----------------------------------------------------------------
    def _g_rename(self, old: str, new: str) -> Generator:
        yield from self._g_flush_stale()
        old = pathutil.normalize(old)
        new = pathutil.normalize(new)
        if old == new:
            return
        if self._dir_pending(old) or (
                self.cache_enabled and self.dcache.get(old, self._clock.now) is not None):
            # a (possibly pending) directory: make it durable, t-rename it
            yield from self._g_flush_server(DMS, "dep")
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
        live = self._queued_only(src_fms, skey)
        if live:
            # the source only exists in-queue: move its entries client-side,
            # re-keyed to the destination, behind a remove-if-exists that
            # clears any durable destination (POSIX replace semantics)
            self._tombstone(src_fms, skey)
            self.deferred_renames += 1
            yield from self._g_enq(
                dst_fms, ("unlink_opt", dkey[0], dst_name, self.cred),
                _OP_WIRE_BASE + len(dst_name), dinfo["path"])
            for e in live:
                moved = (e[0], dkey[0], dst_name) + e[3:]
                wire = (_CREATE_WIRE_BASE if e[0] == "create" else _OP_WIRE_BASE)
                yield from self._g_enq(dst_fms, moved, wire + len(dst_name),
                                       dinfo["path"],
                                       path_hint=new if e[0] == "setattr" else None,
                                       capture=False)
            return
        if src_fms == dst_fms:
            # one server holds both keys, so a single deferred entry keeps
            # queue order — any pending entries for either key apply first,
            # exactly the synchronous sequence
            self.deferred_renames += 1
            yield from self._g_enq(
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
                       (), self._clock.now))

    def _g_rename_dir_sync(self, old: str, new: str) -> Generator:
        yield Rpc(DMS, "rename", (old, new, self.cred))
        self.dcache.invalidate(old)
        self.dcache.invalidate_prefix(pathutil.dir_key_prefix(old))
        if self._cache_node is not None:
            yield Rpc(self._cache_node, "invalidate_prefix", (old, self._clock.now))

    # -- cached reads (the lookup-cache tier) --------------------------------------------
    def _g_fill_file(self, fms: str, dir_uuid: int, name: str, attrs: dict,
                     issued_at: float) -> Generator:
        # positional packs in Table 1 field order: byte-identical to the
        # keyword ``pack``, one C call each on these pad-free layouts
        a = FILE_ACCESS.pack_values(attrs["ctime"], attrs["mode"],
                                    attrs["uid"], attrs["gid"])
        c = FILE_CONTENT.pack_values(attrs["mtime"], attrs["atime"],
                                     attrs["size"], attrs["bsize"],
                                     attrs["suuid"], attrs["sid"])
        yield Rpc(self._cache_node, "fill_file",
                  (fms, dir_uuid, name, a, c, issued_at))

    def _g_getattr_cached(self, fms: str, dir_uuid: int, name: str) -> Generator:
        """Cache-first stat: probe, then authoritative read + fill."""
        attrs = yield Rpc(self._cache_node, "getattr", (fms, dir_uuid, name))
        if attrs is not None:
            return attrs
        t_issue = self._clock.now
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
            t_issue = self._clock.now
            attrs = yield Rpc(fms, "getattr", (info["uuid"], name))
            yield from self._g_fill_file(fms, info["uuid"], name, attrs, t_issue)
            if not may_access(attrs["mode"], attrs["uid"], attrs["gid"],
                              self.cred, want):
                raise PermissionDenied(name)
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
        t_issue = self._clock.now
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
        info = self.dcache.get(pathutil.normalize(parent), self._clock.now) \
            if self.cache_enabled else None
        if info is None:
            info = yield from self._g_dir(parent)
        fms = self._fms_for(info["uuid"], name)
        yield Rpc(self._cache_node, "invalidate",
                  (((fms, info["uuid"], name),), (), self._clock.now))

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
        # pending subdirectory mkdirs are invisible to the DMS readdir
        yield from self._g_flush_server(DMS, "read")
        return (yield from super()._g_readdir(path))

    def _g_rmdir(self, path: str) -> Generator:
        yield from self._g_flush_server(DMS, "read")
        out = yield from super()._g_rmdir(path)
        if self._cache_node is not None:
            yield Rpc(self._cache_node, "invalidate",
                      ((), (pathutil.normalize(path),), self._clock.now))
        return out
