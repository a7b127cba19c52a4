"""Shared hot-entry lookup-cache tier (the LocoFS-A "switch" node).

Fletch-style: one cache node sits *on the network path* between every
client and the metadata tier, reachable in
:attr:`~repro.sim.costmodel.CostModel.switch_rtt_us` (single-digit µs)
instead of a full network RTT.  Both engines treat servers registered via
``engine.register_switch_node`` specially: no connection-switch charge,
and the request never displaces the client's established metadata-server
connection (see ``repro.sim.engine``).

What it caches
--------------
* **File attributes** — the raw decoupled ``(FILE_ACCESS, FILE_CONTENT)``
  value pair keyed by ``(fms_name, dir_uuid, file_name)``.  One entry
  serves ``getattr``, ``open`` and ``access``: the cache node performs the
  same permission arithmetic the FMS would, on the identical bytes.  These
  three FMS ops are genuinely read-only (they never bump ``atime``;
  ``read_meta`` does and is therefore *not* cacheable).
* **Directory lookups** — the packed d-inode keyed by normalized path,
  serving client d-cache refills without the DMS round trip.  The ACL
  walk result is folded into the entry: a lookup is only cached together
  with the credentials it was resolved for, and a hit requires the same
  ``(uid, gid)`` (hot-directory traffic is homogeneous, so this keeps the
  model honest without re-walking ancestors on the cache node).

Coherence protocol (DESIGN §11)
-------------------------------
Writers invalidate before their effects become externally claimable:
every write-behind flush that touches a key sends ``invalidate`` for it
*after* the batch is durable but *before* the flush generator returns, and
synchronous mutating ops invalidate inline.  Fills are timestamped with
the virtual time at which the filling client *issued* the backing read;
the cache rejects a fill whose issue time is at or before the key's last
invalidation (``fills_rejected``) — a conservative rule that provably
never re-installs a value read before a concurrent invalidated write.
The per-key floors are bounded (4 × capacity) and trimmed least recently
invalidated first; the largest floor a trim drops becomes a watermark
every fill must postdate, so a trim coarsens a floor but never forgets it.

The store is volatile (no WAL): a crash simply empties the cache, which
is always safe — subsequent reads miss and fall through to the
authoritative FMS/DMS.
"""

from __future__ import annotations

from repro.common.errors import PermissionDenied
from repro.common.stats import Counters
from repro.kv import HashStore
from repro.kv.meter import Meter
from repro.metadata.acl import may_access
from repro.metadata.layout import DIR_INODE, FILE_ACCESS, FILE_CONTENT

_F = b"F:"  # file-attribute entries
_D = b"D:"  # directory-lookup entries

_ACCESS_SIZE = FILE_ACCESS.total_size


def dir_cache_key(path: str) -> bytes:
    return _D + path.encode("utf-8")


class LookupCacheServer:
    """Handler object for the shared lookup-cache node."""

    def __init__(self, capacity: int = 65536):
        self.capacity = capacity
        self.store = HashStore()
        self.meter = self.store.meter
        self.counters = Counters()
        #: key -> virtual time of the most recent invalidation, used by the
        #: anti-stale fill rejection rule; bounded at 4x capacity, least
        #: recently invalidated first (a re-invalidated key moves to the tail)
        self._invalidated_at: dict[bytes, float] = {}
        #: the largest floor that bound has dropped: a fill issued at or
        #: before it may be for a key whose own floor is gone, so it is
        #: rejected (conservative, the shape of ``_dir_epoch``)
        self._trimmed_floor: float | None = None
        #: coarse stale floor for *all* directory entries — a directory
        #: rename invalidates an unbounded set of descendant paths, so the
        #: per-key floors cannot cover it; any D: fill issued at or before
        #: this instant is rejected (rare op, conservative rule)
        self._dir_epoch = 0.0
        #: ``F:<fms>:`` per FMS name, encoded once (a handful of names)
        self._fms_prefix: dict[str, bytes] = {}

    def attach_meter(self, meter: Meter) -> None:
        self.store.meter = meter
        self.meter = meter

    def bind_metrics(self, registry, prefix: str) -> None:
        self.counters.bind(registry, prefix)

    # -- crash/recovery (volatile tier: losing it is always safe) ---------------
    def crash(self, torn_tail_bytes: int = 0) -> None:
        # entries are lost (safe: reads fall through to the authoritative
        # tier) but the stale floors survive — a fill arriving after the
        # restart may still carry a read issued before an invalidation
        self.store = HashStore()
        self.store.meter = self.meter

    def restart(self) -> int:
        return 0  # nothing to replay

    # -- internals ----------------------------------------------------------------
    def _file_key(self, fms: str, dir_uuid: int, name: str) -> bytes:
        """``F:<fms>:<dir uuid, 8 bytes big-endian><name, UTF-8>``."""
        try:
            prefix = self._fms_prefix[fms]
        except KeyError:
            prefix = self._fms_prefix[fms] = _F + fms.encode() + b":"
        return prefix + dir_uuid.to_bytes(8, "big") + name.encode("utf-8")

    def _evict_for(self, key: bytes) -> None:
        """FIFO eviction: cheapest policy that is still deterministic
        (dict order is insertion order; a re-fill of a cached key
        overwrites it in place and keeps its slot)."""
        store = self.store
        if key not in store._data and len(store._data) >= self.capacity:
            victim = next(iter(store._data))
            store.delete(victim)
            self.counters.inc("evictions")

    def _admit(self, key: bytes, value: bytes, issued_at: float) -> bool:
        stale_floor = self._invalidated_at.get(key)
        trimmed = self._trimmed_floor
        if trimmed is not None and (stale_floor is None or trimmed > stale_floor):
            stale_floor = trimmed
        if key.startswith(_D):
            epoch = self._dir_epoch
            if stale_floor is None or epoch > stale_floor:
                stale_floor = epoch if epoch else None
        if stale_floor is not None and issued_at <= stale_floor:
            # the backing read was issued before (or racing with) the last
            # invalidation of this key: it may carry a pre-write value
            self.counters.inc("fills_rejected")
            self.store.meter.charge("get", len(key))  # the probe still costs
            return False
        self._evict_for(key)
        self.store.put(key, value)
        self.counters.inc("fills")
        return True

    def _lookup(self, key: bytes) -> bytes | None:
        value = self.store.get(key)
        if value is None:
            self.counters.inc("misses")
        else:
            self.counters.inc("hits")
        return value

    # -- file-attribute entries -----------------------------------------------------
    def op_getattr(self, fms: str, dir_uuid: int, name: str) -> dict | None:
        """Cached stat: both decoupled parts, or ``None`` on a miss."""
        value = self._lookup(self._file_key(fms, dir_uuid, name))
        if value is None:
            return None
        out = FILE_ACCESS.unpack(value[:_ACCESS_SIZE])
        out.update(FILE_CONTENT.unpack(value[_ACCESS_SIZE:]))
        return out

    def op_open(self, fms: str, dir_uuid: int, name: str, cred, want: int) -> dict | None:
        """Cached open: same permission check the FMS performs."""
        value = self._lookup(self._file_key(fms, dir_uuid, name))
        if value is None:
            return None
        a, c = value[:_ACCESS_SIZE], value[_ACCESS_SIZE:]
        mode, uid, gid = FILE_ACCESS.perm(a)
        if not may_access(mode, uid, gid, cred, want):
            raise PermissionDenied(name)
        return {"uuid": FILE_CONTENT.read(c, "suuid"), "mode": mode,
                "size": FILE_CONTENT.read(c, "size")}

    def op_access(self, fms: str, dir_uuid: int, name: str, cred, want: int) -> bool | None:
        value = self._lookup(self._file_key(fms, dir_uuid, name))
        if value is None:
            return None
        return may_access(*FILE_ACCESS.perm(value[:_ACCESS_SIZE]), cred, want)

    def op_fill_file(self, fms: str, dir_uuid: int, name: str,
                     access: bytes, content: bytes, issued_at: float) -> bool:
        return self._admit(self._file_key(fms, dir_uuid, name),
                           access + content, issued_at)

    # -- directory-lookup entries ---------------------------------------------------
    def op_lookup(self, path: str, cred) -> dict | None:
        """Cached d-inode, or ``None`` when missing / resolved for another
        principal (the ACL walk belongs to the credentials that filled it)."""
        value = self._lookup(dir_cache_key(path))
        if value is None:
            return None
        tag = value[DIR_INODE.total_size:]
        if (int.from_bytes(tag[:4], "little") != cred.uid
                or int.from_bytes(tag[4:8], "little") != cred.gid):
            # resolved for another principal: treat as a miss, the DMS
            # re-walks the ACLs for this one
            self.counters.inc("cred_mismatch")
            return None
        fields = DIR_INODE.unpack(value[:DIR_INODE.total_size])
        return {"path": path, "uuid": fields["uuid"], "mode": fields["mode"],
                "uid": fields["uid"], "gid": fields["gid"],
                "ctime": fields["ctime"]}

    def op_fill_lookup(self, path: str, info: dict, cred, issued_at: float) -> bool:
        buf = DIR_INODE.pack(ctime=info["ctime"], mode=info["mode"],
                             uid=info["uid"], gid=info["gid"],
                             uuid=info["uuid"])
        tag = cred.uid.to_bytes(4, "little") + cred.gid.to_bytes(4, "little")
        return self._admit(dir_cache_key(path), buf + tag, issued_at)

    # -- invalidation ----------------------------------------------------------------
    def op_invalidate(self, file_keys, paths, now: float) -> int:
        """Drop entries for the given file keys / dir paths.

        ``file_keys`` is an iterable of ``(fms, dir_uuid, name)``; ``now``
        is the invalidating client's issue time, recorded as the stale
        floor for the anti-stale fill rejection rule.
        """
        dropped = 0
        inval = self._invalidated_at
        store = self.store
        for fms, dir_uuid, name in file_keys:
            key = self._file_key(fms, dir_uuid, name)
            # pop, then store: the key moves to the tail, so the bound
            # below trims the least recently invalidated floors first
            inval[key] = max(now, inval.pop(key, 0.0))
            dropped += store.delete(key)
        for path in paths:
            key = dir_cache_key(path)
            inval[key] = max(now, inval.pop(key, 0.0))
            dropped += store.delete(key)
        n = len(inval) - 4 * self.capacity
        if n > 0:
            trimmed = self._trimmed_floor
            for key in list(inval)[:n]:
                floor = inval.pop(key)
                if trimmed is None or floor > trimmed:
                    trimmed = floor
            self._trimmed_floor = trimmed
        self.counters.inc("invalidations", len(file_keys) + len(paths))
        return dropped

    def op_invalidate_prefix(self, prefix: str, now: float) -> int:
        """Drop every directory entry at or under ``prefix`` (t-rename).

        Raises the global directory-entry stale floor instead of recording
        per-key floors: the set of affected descendant paths is unbounded.
        """
        self._dir_epoch = max(now, self._dir_epoch)
        base = dir_cache_key(prefix)
        victims = [base] + [k for k, _ in self.store.prefix_scan(base + b"/")]
        dropped = 0
        for key in victims:
            dropped += self.store.delete(key)
        self.counters.inc("invalidations", len(victims))
        return dropped

    # -- bench/debug (unmetered) ------------------------------------------------------
    def hit_rate(self) -> float:
        hits = self.counters.get("hits")
        total = hits + self.counters.get("misses")
        return hits / total if total else 0.0
