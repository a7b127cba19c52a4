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
  RPC buys ``_UUID_RESERVE`` = 64 of them)
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
lookup); a miss reads the authoritative server and *holds* the fill,
stamped with the issue-time of that read, until the client's next
cache-node request carries it — no request of its own.  Writers
invalidate touched keys as part of their flushes — before the flush
generator returns, which together with the cache's anti-stale fill
rejection guarantees zero stale reads (``repro.core.lookupcache``).
"""

from __future__ import annotations

from collections.abc import Generator

from repro.common import pathutil
from repro.common.errors import Exists, IsADirectory, NoEntry, PermissionDenied
from repro.common.types import StatResult
from repro.metadata.acl import R_OK, W_OK, X_OK, may_access
from repro.metadata.layout import FILE_ATTRS
from repro.sim.rpc import Mark, Rpc

from .client import DMS, BatchingLocoClient, _CREATE_WIRE_BASE, _write_dir_attrs

#: modeled wire size of a deferred non-create FMS entry beyond its name
_OP_WIRE_BASE = 40
#: modeled wire size of a deferred DMS entry beyond its path
_DIR_WIRE_BASE = 56
#: directory uuids one ``reserve_uuids`` RPC to the DMS buys: the
#: client-side pool refill size for deferred mkdir
_UUID_RESERVE = 64

S_IFDIR = 0o040000

#: a getattr reply, in layout order, re-packed as the cache stores it:
#: both parts back to back, byte-identical to the FMS's (pad-free layouts)
_PACK_FILE = FILE_ATTRS.pack


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
        pending create plus its attr updates, none of them in doubt —
        else ``[]``."""
        pend = self._pending.get(server)
        idxs = pend.bykey.get(key) if pend is not None else None
        if not idxs or idxs[0] < pend.in_doubt:
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
        if self.cache_enabled:
            hit = self.dcache.get(path, self._clock.now)
            if hit is not None:
                if self._engine.obs_detailed:
                    yield Mark("client.cache.hit", {"path": path})
                return hit
        return (yield from self._g_dir_fetch(path))

    def _g_dir_fetch(self, path: str) -> Generator:
        """The d-cache miss half of :meth:`_g_dir` (``path`` normalized).
        A hot path that probed the d-cache inline enters here on a miss,
        so the miss is counted once."""
        if self._dir_pending(path):
            # the optimistic d-cache entry of a pending mkdir expired (or
            # the cache is off): make the directory durable, then resolve
            yield from self._g_flush_server((DMS,), "read")
        try:
            if self._cache_node is not None:
                fill, self._fill = self._fill, None
                info = yield Rpc(self._cache_node, "lookup", (path, self.cred, fill))
                if info is None:
                    t_issue = self._clock.now
                    info = yield Rpc(DMS, "lookup", (path, self.cred))
                    # a snapshot: a deferred dsetattr edits ``info`` in place
                    self._fill = ("lookup", path, (info["ctime"], info["mode"],
                                  info["uid"], info["gid"], info["uuid"]),
                                  self.cred, t_issue)
            else:
                info = yield Rpc(DMS, "lookup", (path, self.cred))
        except NoEntry as err:
            if err.path != path and self._dir_pending(err.path):
                # the DMS's ACL walk stopped at an ancestor whose mkdir is
                # still queued here: to this client that directory exists,
                # and the missing name is the one it asked for
                raise NoEntry(path) from None
            raise
        if self.cache_enabled:
            self.dcache.put(path, info, self._clock.now)
            if self._engine.obs_detailed:
                yield Mark("client.cache.miss", {"path": path})
        return info

    # -- deferred mkdir ------------------------------------------------------------------
    def _g_reserved_uuid(self) -> Generator:
        if self._uuid_next >= self._uuid_end:
            start, n = yield Rpc(DMS, "reserve_uuids", (_UUID_RESERVE,))
            self._uuid_next, self._uuid_end = start, start + n
        uuid = self._uuid_next
        self._uuid_next += 1
        return uuid

    def _g_mkdir(self, path: str, mode: int = 0o755) -> Generator:
        if self.strict_collisions:
            # the cross-keyspace probe needs synchronous semantics
            return (yield from super()._g_mkdir(path, mode))
        if self._clock.now - self._oldest_pending_us >= self.batch_max_age_us:
            yield from self._g_flush_stale()
        now = self._clock.now / 1_000_000.0
        path = pathutil.normalize(path)
        if path == "/":
            raise Exists(path)
        parent, name = pathutil.split(path)
        if self.cache_enabled and not self._engine.obs_detailed:
            info = self.dcache.get(parent, self._clock.now)
            if info is None:
                info = yield from self._g_dir_fetch(parent)
        else:
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
                e = qpend.entries[i]
                if hint == path and e is not None and e[0] == "setattr":
                    qpend.guards.setdefault(i, set()).add(uuid)
        # read-your-writes for free: the d-cache serves the new directory
        # immediately, so creates underneath defer without a DMS round trip
        # (cached before the enqueue, whose full-queue flush moves the clock)
        self._cache_dir({"path": path, "uuid": uuid,
                         "mode": S_IFDIR | (mode & 0o7777),
                         "uid": self.cred.uid, "gid": self.cred.gid, "ctime": now})
        pend = self._enq(DMS, ("mkdir", path, mode, self.cred, now, uuid),
                         _DIR_WIRE_BASE + len(path))
        if pend is not None:
            yield from self._g_enq_tail(DMS, pend)
        return uuid

    # -- deferred unlink (with create annihilation) --------------------------------------
    def _g_unlink(self, path: str) -> Generator:
        if self._clock.now - self._oldest_pending_us >= self.batch_max_age_us:
            yield from self._g_flush_stale()
        parent, name = pathutil.split(path)
        if self.cache_enabled and not self._engine.obs_detailed:
            info = self.dcache.get(parent, self._clock.now)
            if info is None:
                info = yield from self._g_dir_fetch(parent)
        else:
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
        pend = self._enq(server, (kind, dir_uuid, name, self.cred),
                         _OP_WIRE_BASE + len(name), info["path"], path)
        if pend is not None:
            yield from self._g_enq_tail(server, pend)

    # -- deferred setattr / chmod / chown (last-write coalescing) ------------------------
    def _g_setattr(self, path: str, attrs: dict) -> Generator:
        """Deferred chmod/chown.  Kind order: a path the client knows as a
        directory (cached d-inode or pending mkdir) is one; anything else
        is tried as a file, with the DMS fallback at flush time."""
        if self._clock.now - self._oldest_pending_us >= self.batch_max_age_us:
            yield from self._g_flush_stale()
        now = self._clock.now / 1_000_000.0
        path = pathutil.normalize(path)
        if path == "/":
            yield Rpc(DMS, "setattr", (path, self.cred, now), attrs)
            self._wrote_root(now, attrs)
            if self._cache_node is not None:
                fill, self._fill = self._fill, None
                yield Rpc(self._cache_node, "invalidate",
                          ((), (path,), self._clock.now, fill))
            return
        mode, uid, gid = attrs.get("mode"), attrs.get("uid"), attrs.get("gid")
        dinfo = self.dcache.get(path, self._clock.now) if self.cache_enabled else None
        if dinfo is not None or self._dir_pending(path):
            yield from self._g_dsetattr(path, dinfo, now, mode, uid, gid)
            return
        parent, name = pathutil.split(path)
        if self.cache_enabled and not self._engine.obs_detailed:
            info = self.dcache.get(parent, self._clock.now)
            if info is None:
                info = yield from self._g_dir_fetch(parent)
        else:
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
                if i < pend.in_doubt:
                    break  # shipped already: append a fresh entry
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
                if self._engine.obs_detailed:
                    yield from self._g_capture_into(pend)
                return
        pend = self._enq(
            server, ("setattr", dir_uuid, name, self.cred, now, mode, uid, gid),
            _OP_WIRE_BASE + len(name), info["path"], path_hint=path)
        if pend is not None:
            yield from self._g_enq_tail(server, pend)

    def _g_dsetattr(self, path: str, dinfo: dict | None, now: float,
                    mode: int | None, uid: int | None, gid: int | None) -> Generator:
        """Deferred directory setattr, coalescing into the DMS queue."""
        # read-your-writes: the cached d-inode reflects the pending change
        if dinfo is not None:
            _write_dir_attrs(dinfo, mode, uid, gid)
        dq = self._pending.get(DMS)
        idxs = dq.bykey.get(path) if dq is not None else None
        if idxs and idxs[-1] >= dq.in_doubt:
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
                if self._engine.obs_detailed:
                    yield from self._g_capture_into(dq)
                return
        pend = self._enq(DMS, ("dsetattr", path, self.cred, now, mode, uid, gid),
                         _DIR_WIRE_BASE + len(path))
        if pend is not None:
            yield from self._g_enq_tail(DMS, pend)

    # -- deferred rename -----------------------------------------------------------------
    def _g_rename(self, old: str, new: str) -> Generator:
        if self._clock.now - self._oldest_pending_us >= self.batch_max_age_us:
            yield from self._g_flush_stale()
        old = pathutil.normalize(old)
        new = pathutil.normalize(new)
        if old == new:
            return
        if new == "/":
            raise IsADirectory(new)
        if self._dir_pending(old) or (
                self.cache_enabled and self.dcache.get(old, self._clock.now) is not None):
            # a directory this client knows of (cached or pending): no probe
            yield from self._g_rename_dir(old, new)
            return
        src_parent, src_name = pathutil.split(old)
        dst_parent, dst_name = pathutil.split(new)
        if self.cache_enabled and not self._engine.obs_detailed:
            sinfo = self.dcache.get(src_parent, self._clock.now)
            if sinfo is None:
                sinfo = yield from self._g_dir_fetch(src_parent)
            dinfo = self.dcache.get(dst_parent, self._clock.now)
            if dinfo is None:
                dinfo = yield from self._g_dir_fetch(dst_parent)
        else:
            sinfo = yield from self._g_dir(src_parent)
            dinfo = yield from self._g_dir(dst_parent)
        self._check_parent_write(sinfo)
        self._check_parent_write(dinfo)
        skey = (sinfo["uuid"], src_name)
        dkey = (dinfo["uuid"], dst_name)
        src_fms = self._fms_for(*skey)
        dst_fms = self._fms_for(*dkey)
        live = self._queued_only(src_fms, skey)
        if live:
            # the source only exists in-queue: move its entries client-side,
            # re-keyed to the destination, behind a remove-if-exists that
            # clears any durable destination (POSIX replace semantics)
            self._tombstone(src_fms, skey)
            self.deferred_renames += 1
            pend = self._enq(dst_fms, ("unlink_opt", dkey[0], dst_name, self.cred),
                             _OP_WIRE_BASE + len(dst_name), dinfo["path"], new)
            if pend is not None:
                yield from self._g_enq_tail(dst_fms, pend)
            for e in live:
                moved = (e[0], dkey[0], dst_name) + e[3:]
                wire = (_CREATE_WIRE_BASE if e[0] == "create" else _OP_WIRE_BASE)
                pend = self._enq(dst_fms, moved, wire + len(dst_name), dinfo["path"], new)
                if pend is not None:
                    yield from self._g_enq_tail(dst_fms, pend, capture=False)
            return
        if src_fms == dst_fms:
            # one server holds both keys, so a single deferred entry keeps
            # queue order — any pending entries for either key apply first,
            # exactly the synchronous sequence.  Deferring needs the kind
            # now: one DMS probe, unless a queued entry makes it a file
            if skey not in self._dirty and (yield Rpc(DMS, "exists", (old,))):
                yield from self._g_rename_dir(old, new)
                return
            self.deferred_renames += 1
            pend = self._enq(
                src_fms, ("rename_local", skey[0], src_name, dkey[0], dst_name,
                          self.cred),
                _OP_WIRE_BASE + len(src_name) + len(dst_name), dinfo["path"], old)
            if pend is not None:
                yield from self._g_enq_tail(src_fms, pend)
            return
        # cross-server: one round over the queues holding either key, then
        # the synchronous two-RPC export/import, file first
        owners = []
        for key in (skey, dkey):
            server = self._dirty.get(key)
            if server is not None:
                owners.append(server)
        if owners:
            yield from self._g_flush_server(owners, "read")
        if not (yield from self._g_rename_file(old, new)):
            yield from self._g_rename_dir(old, new)
            return
        if self._cache_node is not None:
            fill, self._fill = self._fill, None
            yield Rpc(self._cache_node, "invalidate",
                      (((src_fms, skey[0], src_name), (dst_fms, dkey[0], dst_name)),
                       (), self._clock.now, fill))

    def _g_rename_dir(self, old: str, new: str) -> Generator:
        # the directory and the destination's parent must be durable first
        if DMS in self._pending:
            yield from self._g_flush_server((DMS,), "dep")
        yield Rpc(DMS, "rename", (old, new, self.cred))
        self.dcache.invalidate(old)
        self.dcache.invalidate_prefix(pathutil.dir_key_prefix(old))
        if self._cache_node is not None:
            fill, self._fill = self._fill, None
            yield Rpc(self._cache_node, "invalidate_prefix",
                      (old, self._clock.now, fill))

    # -- cached reads (the lookup-cache tier) --------------------------------------------
    def _g_locate(self, path: str) -> Generator:
        """A cached read's file: the staleness sweep, the read-your-writes
        barrier (flush the one queue holding the key), then the parent's
        d-inode.  Returns ``(parent info, name, probe)``.  The d-cache is
        probed inline — once for the barrier when a key is dirty, once for
        the read, as the barrier and the read each resolve the parent —
        and a miss enters :meth:`_g_dir_fetch`.

        ``probe`` is false when the barrier just flushed the key and no
        fill is held: that flush invalidated or created the key, so the
        cache could hit only on another client's fill in the moment since
        — the read goes straight to the FMS.  (Skipping a probe is always
        safe; at worst it gives up a hit.  A held fill needs a request to
        ride, so the probe goes.)"""
        if self._clock.now - self._oldest_pending_us >= self.batch_max_age_us:
            yield from self._g_flush_stale()
        parent, name = pathutil.split_fast(path)
        inline = self.cache_enabled and not self._engine.obs_detailed
        dirty = self._dirty
        flushed = False
        if dirty:
            info = self.dcache.get(parent, self._clock.now) if inline else None
            if info is None:
                info = yield from (self._g_dir_fetch(parent) if inline
                                   else self._g_dir(parent))
            server = dirty.get((info["uuid"], name))
            if server is not None:
                yield from self._g_flush_server((server,), "read")
                flushed = True
        info = self.dcache.get(parent, self._clock.now) if inline else None
        if info is None:
            info = yield from (self._g_dir_fetch(parent) if inline
                               else self._g_dir(parent))
        return info, name, not flushed or self._fill is not None

    def _g_stat_file(self, path: str) -> Generator:
        if self._cache_node is None:
            return (yield from super()._g_stat_file(path))
        info, name, probe = yield from self._g_locate(path)
        dir_uuid = info["uuid"]
        fms = self._fms_for(dir_uuid, name)
        # cache-first: probe, then the authoritative read, its fill held
        attrs = None
        if probe:
            fill, self._fill = self._fill, None
            attrs = yield Rpc(self._cache_node, "getattr", (fms, dir_uuid, name, fill))
        if attrs is None:
            t_issue = self._clock.now
            try:
                attrs = yield Rpc(fms, "getattr", (dir_uuid, name))
            except NoEntry:
                raise NoEntry(pathutil.join(info["path"], name)) from None
            self._fill = ("file", fms, dir_uuid, name, _PACK_FILE(*attrs), t_issue)
        # the positional reply, in layout order (FileMetadataServer.op_getattr)
        ctime, mode, uid, gid, mtime, atime, size, bsize, suuid, _ = attrs
        return StatResult(mode, uid, gid, size, ctime, mtime, atime, bsize, suuid)

    def _g_open(self, path: str, want: int = R_OK) -> Generator:
        if self._cache_node is None:
            return (yield from super()._g_open(path, want))
        info, name, probe = yield from self._g_locate(path)
        dir_uuid = info["uuid"]
        fms = self._fms_for(dir_uuid, name)
        handle = None
        if probe:
            fill, self._fill = self._fill, None
            handle = yield Rpc(self._cache_node, "open",
                               (fms, dir_uuid, name, self.cred, want, fill))
        if handle is None:
            t_issue = self._clock.now
            try:
                attrs = yield Rpc(fms, "getattr", (dir_uuid, name))
            except NoEntry:
                raise NoEntry(pathutil.join(info["path"], name)) from None
            self._fill = ("file", fms, dir_uuid, name, _PACK_FILE(*attrs), t_issue)
            _, mode, uid, gid, _, _, size, _, suuid, _ = attrs  # layout order
            if not may_access(mode, uid, gid, self.cred, want):
                raise PermissionDenied(name)
            handle = {"uuid": suuid, "mode": mode, "size": size}
        handle["path"] = pathutil.normalize(path)
        return handle

    def _g_access(self, path: str, want: int = R_OK) -> Generator:
        if self._cache_node is None:
            return (yield from super()._g_access(path, want))
        info, name, probe = yield from self._g_locate(path)
        if not name:  # the root: its d-inode answers
            return may_access(info["mode"], info["uid"], info["gid"], self.cred, want)
        dir_uuid = info["uuid"]
        fms = self._fms_for(dir_uuid, name)
        if probe:
            fill, self._fill = self._fill, None
            answer = yield Rpc(self._cache_node, "access",
                               (fms, dir_uuid, name, self.cred, want, fill))
            if answer is not None:
                return answer
        t_issue = self._clock.now
        try:
            attrs = yield Rpc(fms, "getattr", (dir_uuid, name))
        except NoEntry:
            dinfo = yield from self._g_dir(path)
            return may_access(dinfo["mode"], dinfo["uid"], dinfo["gid"],
                              self.cred, want)
        self._fill = ("file", fms, dir_uuid, name, _PACK_FILE(*attrs), t_issue)
        return may_access(*attrs[1:4], self.cred, want)  # mode, uid, gid

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
        fill, self._fill = self._fill, None
        yield Rpc(self._cache_node, "invalidate",
                  (((fms, info["uuid"], name),), (), self._clock.now, fill))

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

    def _g_rmdir(self, path: str) -> Generator:
        # the directory barrier's round carries the DMS queue too
        # (BatchingLocoClient._g_flush_dir)
        out = yield from super()._g_rmdir(path)
        if self._cache_node is not None:
            fill, self._fill = self._fill, None
            yield Rpc(self._cache_node, "invalidate",
                      ((), (pathutil.normalize(path),), self._clock.now, fill))
        return out
