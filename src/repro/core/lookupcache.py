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
synchronous mutating ops invalidate inline.  A fill is no request of its
own: the client that missed holds it and it rides that client's next
request to this node (a probe, an ``invalidate`` or an
``invalidate_prefix``, each taking a trailing ``fill``), which applies it
before its own work — see :meth:`LookupCacheServer.apply_fill` for the
two wire forms.  Fills are timestamped with the virtual time at which
the filling client *issued* the backing read; the cache rejects a fill
whose issue time is at or before the key's last invalidation
(``fills_rejected``) — a conservative rule that provably never
re-installs a value read before a concurrent invalidated write, however
late the fill arrives.
The per-key floors are bounded (4 × capacity) and trimmed least recently
invalidated first; the largest floor a trim drops becomes a watermark
every fill must postdate, so a trim coarsens a floor but never forgets it.

The node is volatile (no WAL): a crash loses the entries *and* the
floors, as a real process would.  Losing entries is safe (reads miss and
fall through to the authoritative FMS/DMS); losing floors is not, since a
fill held across the outage may carry a read issued before an
invalidation the node no longer remembers, or never received.  So a
crashed node admits no fill until the fault runtime reports the instant
it serves again (:meth:`LookupCacheServer.resume`), and that instant
becomes the watermark: every fill read before it is rejected.
"""

from __future__ import annotations

import math

from repro.common.errors import PermissionDenied
from repro.common.stats import Counters
from repro.kv import HashStore
from repro.kv.meter import Meter
from repro.metadata.acl import may_access
from repro.metadata.layout import DIR_INODE, FILE_ACCESS, FILE_ATTRS, FILE_CONTENT

_F = b"F:"  # file-attribute entries
_D = b"D:"  # directory-lookup entries

_ACCESS_SIZE = FILE_ACCESS.total_size
#: a file entry's value: the access part, then the content part
_FILE_LEN = FILE_ATTRS.size
#: both parts are pad-free, so one ``Struct`` decodes the whole value into
#: the FMS's positional getattr reply
_FILE_VALUES = FILE_ATTRS.unpack
#: the content fields ``open`` reads, at their offsets in the whole value
_SUUID, _SIZE = map(FILE_CONTENT.field, ("suuid", "size"))
_SUUID_AT = _ACCESS_SIZE + _SUUID.offset
_SIZE_AT = _ACCESS_SIZE + _SIZE.offset
_DIR_LEN = DIR_INODE.total_size


def _check_file(value: bytes) -> None:
    """Raise what checking each part of a file entry's ``value`` raises:
    the access part's length error first, then the content part's."""
    FILE_ACCESS.check(value[:_ACCESS_SIZE])
    FILE_CONTENT.check(value[_ACCESS_SIZE:])


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
        #: the floor of every key: the largest floor that bound has
        #: dropped, or the instant the node last came back from a crash —
        #: a fill issued at or before it may be for a key whose own floor
        #: is gone, so it is rejected (conservative, the shape of
        #: ``_dir_epoch``)
        self._watermark: float | None = None
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

    # -- crash/recovery (volatile tier: nothing survives) -----------------------
    def crash(self, torn_tail_bytes: int = 0) -> None:
        self.store = HashStore()
        self.store.meter = self.meter
        self._invalidated_at = {}
        self._dir_epoch = 0.0
        self._watermark = math.inf  # until resume(): admit no fill

    def restart(self) -> int:
        return 0  # nothing to replay

    def resume(self, at_us: float) -> None:
        """The node serves again from ``at_us`` (the fault runtime's
        restart instant plus recovery).  Invalidations sent while it was
        down were refused, so a fill whose read was issued at or before
        ``at_us`` may predate a write the node never heard of: one floor
        at ``at_us`` rejects them all."""
        self._watermark = at_us

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

    def apply_fill(self, fill: tuple) -> bool:
        """Admit the fill a request carries, unless its backing read was
        issued at or before the key's stale floor; ``True`` when it was
        installed.  Two wire forms:

        * ``("file", fms, dir_uuid, name, value, issued_at)`` — ``value``
          is both inode parts back to back, as the FMS stores them;
        * ``("lookup", path, values, cred, issued_at)`` — ``values`` is
          the d-inode's fields in layout order, snapshotted when the DMS
          replied (the client's own copy may take deferred changes since).
        """
        if fill[0] == "file":
            _, fms, dir_uuid, name, value, issued_at = fill
            key = self._file_key(fms, dir_uuid, name)
            stale_floor = None
        else:
            _, path, values, cred, issued_at = fill
            key = _D + path.encode("utf-8")  # dir_cache_key, inline
            # the ACL walk's principal rides in the value (``op_lookup``)
            value = (DIR_INODE.pack_values(*values) + cred.uid.to_bytes(4, "little")
                     + cred.gid.to_bytes(4, "little"))
            stale_floor = self._dir_epoch or None
        floor = self._invalidated_at.get(key)
        if floor is not None and (stale_floor is None or floor > stale_floor):
            stale_floor = floor
        watermark = self._watermark
        if watermark is not None and (stale_floor is None or watermark > stale_floor):
            stale_floor = watermark
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
    def op_getattr(self, fms: str, dir_uuid: int, name: str,
                   fill: tuple | None = None) -> tuple | None:
        """Cached stat: the FMS's positional getattr reply, decoded from
        both cached parts at once, or ``None`` on a miss."""
        if fill is not None:
            self.apply_fill(fill)
        value = self._lookup(self._file_key(fms, dir_uuid, name))
        if value is None:
            return None
        if len(value) != _FILE_LEN:
            _check_file(value)
        return _FILE_VALUES(value)

    def op_open(self, fms: str, dir_uuid: int, name: str, cred, want: int,
                fill: tuple | None = None) -> dict | None:
        """Cached open: same permission check the FMS performs."""
        if fill is not None:
            self.apply_fill(fill)
        value = self._lookup(self._file_key(fms, dir_uuid, name))
        if value is None:
            return None
        mode, uid, gid = FILE_ACCESS.perm(value[:_ACCESS_SIZE])
        if not may_access(mode, uid, gid, cred, want):
            raise PermissionDenied(name)
        if len(value) != _FILE_LEN:
            _check_file(value)
        return {"uuid": _SUUID.unpack_from(value, _SUUID_AT)[0], "mode": mode,
                "size": _SIZE.unpack_from(value, _SIZE_AT)[0]}

    def op_access(self, fms: str, dir_uuid: int, name: str, cred, want: int,
                  fill: tuple | None = None) -> bool | None:
        if fill is not None:
            self.apply_fill(fill)
        value = self._lookup(self._file_key(fms, dir_uuid, name))
        if value is None:
            return None
        return may_access(*FILE_ACCESS.perm(value[:_ACCESS_SIZE]), cred, want)

    # -- directory-lookup entries ---------------------------------------------------
    def op_lookup(self, path: str, cred, fill: tuple | None = None) -> dict | None:
        """Cached d-inode, or ``None`` when missing / resolved for another
        principal (the ACL walk belongs to the credentials that filled it)."""
        if fill is not None:
            self.apply_fill(fill)
        value = self._lookup(dir_cache_key(path))
        if value is None:
            return None
        tag = value[_DIR_LEN:]
        if (int.from_bytes(tag[:4], "little") != cred.uid
                or int.from_bytes(tag[4:8], "little") != cred.gid):
            # resolved for another principal: treat as a miss, the DMS
            # re-walks the ACLs for this one
            self.counters.inc("cred_mismatch")
            return None
        ctime, mode, uid, gid, uuid = DIR_INODE.values(value[:_DIR_LEN])
        return {"path": path, "uuid": uuid, "mode": mode, "uid": uid,
                "gid": gid, "ctime": ctime}

    # -- invalidation ----------------------------------------------------------------
    def op_invalidate(self, file_keys, paths, now: float,
                      fill: tuple | None = None) -> int:
        """Drop entries for the given file keys / dir paths.

        ``file_keys`` is an iterable of ``(fms, dir_uuid, name)``; ``now``
        is the invalidating client's issue time, recorded as the stale
        floor for the anti-stale fill rejection rule.  The carried
        ``fill`` applies first, so an invalidation of its own key drops it.
        """
        if fill is not None:
            self.apply_fill(fill)
        dropped = 0
        inval = self._invalidated_at
        store = self.store
        prefixes = self._fms_prefix
        for fms, dir_uuid, name in file_keys:
            # _file_key, inline
            try:
                prefix = prefixes[fms]
            except KeyError:
                prefix = prefixes[fms] = _F + fms.encode() + b":"
            key = prefix + dir_uuid.to_bytes(8, "big") + name.encode("utf-8")
            # pop, then store: the key moves to the tail, so the bound
            # below trims the least recently invalidated floors first
            inval[key] = max(now, inval.pop(key, 0.0))
            dropped += store.delete(key)
        for path in paths:
            key = _D + path.encode("utf-8")  # dir_cache_key, inline
            inval[key] = max(now, inval.pop(key, 0.0))
            dropped += store.delete(key)
        n = len(inval) - 4 * self.capacity
        if n > 0:
            watermark = self._watermark
            for key in list(inval)[:n]:
                floor = inval.pop(key)
                if watermark is None or floor > watermark:
                    watermark = floor
            self._watermark = watermark
        self.counters.inc("invalidations", len(file_keys) + len(paths))
        return dropped

    def op_invalidate_prefix(self, prefix: str, now: float,
                             fill: tuple | None = None) -> int:
        """Drop every directory entry at or under ``prefix`` (t-rename).

        Raises the global directory-entry stale floor instead of recording
        per-key floors: the set of affected descendant paths is unbounded.
        """
        if fill is not None:
            self.apply_fill(fill)
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
