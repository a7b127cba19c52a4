"""Lease-based client cache (paper §3.2.2).

LocoFS clients cache directory inodes under a lease: an entry is valid
for *strictly less than* ``lease_seconds`` after it was stored and is
never served at or beyond that age — the paper notes the strict lease
causes cache misses (e.g. the d-inode cache's high miss ratio for stat,
§4.2.2 observation 4) but keeps the protocol simple.  Time comes from
the engine's virtual clock, passed in by the caller (microseconds).

The cache is LRU-bounded; it stores only d-inodes (256 B each), so its
memory footprint on a client is limited by design.  Two auxiliary
structures keep the bound and the d-rename path cheap:

* an *expiry heap* ``(expires_at, key, stored_at)`` so a full cache
  evicts already-dead entries (counted as ``expirations``) before it
  sacrifices a live LRU victim;
* a *sorted key index* so ``invalidate_prefix`` — called once per
  directory rename — finds its victims with a bisect plus a scan of the
  matching range, O(log n + hits), instead of a full-table scan.  The
  index is rebuilt lazily (new keys only set a dirty flag); removals
  bisect-delete so rename bursts keep it valid without rebuilds.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import OrderedDict
from typing import Generic, TypeVar

V = TypeVar("V")


class LeaseCache(Generic[V]):
    """LRU cache whose entries expire ``lease_us`` after insertion."""

    def __init__(self, lease_seconds: float = 30.0, capacity: int = 65536):
        self.lease_us = lease_seconds * 1_000_000.0
        self.capacity = capacity
        self._entries: OrderedDict[str, tuple[float, V]] = OrderedDict()
        #: (expires_at, key, stored_at); stale tuples (renewed/evicted
        #: entries) are detected by comparing stored_at and skipped
        self._heap: list[tuple[float, str, float]] = []
        #: sorted key index for prefix invalidation
        self._index: list[str] = []
        self._index_dirty = False
        self.hits = 0
        self.misses = 0
        self.expirations = 0
        #: index keys examined by invalidate_prefix (regression guard:
        #: stays O(log n + hits), never O(n))
        self.prefix_scan_steps = 0

    # -- internal index/heap upkeep ------------------------------------------------
    def _index_add(self, key: str) -> None:
        # lazy: a burst of inserts marks the index dirty once and the next
        # prefix invalidation rebuilds it in one sort
        self._index_dirty = True

    def _index_drop(self, key: str) -> None:
        if self._index_dirty:
            return  # the rebuild will simply not see the key
        i = bisect_left(self._index, key)
        if i < len(self._index) and self._index[i] == key:
            del self._index[i]

    def _remove(self, key: str) -> None:
        del self._entries[key]
        self._index_drop(key)

    # -- public API ----------------------------------------------------------------
    def get(self, key: str, now_us: float) -> V | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        stored_at, value = entry
        if now_us - stored_at >= self.lease_us:
            self._remove(key)
            self.expirations += 1
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: str, value: V, now_us: float) -> None:
        if key not in self._entries:
            self._index_add(key)
        self._entries[key] = (now_us, value)
        self._entries.move_to_end(key)
        heapq.heappush(self._heap, (now_us + self.lease_us, key, now_us))
        heap = self._heap
        while len(self._entries) > self.capacity:
            evicted = False
            while heap:
                expires_at, k, stored_at = heap[0]
                ent = self._entries.get(k)
                if ent is None or ent[0] != stored_at:
                    heapq.heappop(heap)  # stale heap tuple
                    continue
                if expires_at <= now_us:
                    # a dead entry beats a live LRU victim
                    heapq.heappop(heap)
                    self._remove(k)
                    self.expirations += 1
                    evicted = True
                break
            if not evicted:
                k, _ = self._entries.popitem(last=False)
                self._index_drop(k)

    def renew(self, key: str, now_us: float) -> bool:
        """Extend a live entry's lease without hit/miss accounting.

        Used for piggybacked renewals: a batched metadata RPC that writes
        under a cached directory implicitly refreshes that directory's
        lease (LocoFS-B), so the renewal is free — it must not show up as
        a cache hit in the stats the experiments report.
        """
        entry = self._entries.get(key)
        if entry is None:
            return False
        stored_at, value = entry
        if now_us - stored_at >= self.lease_us:
            self._remove(key)
            self.expirations += 1
            return False
        self._entries[key] = (now_us, value)
        self._entries.move_to_end(key)
        heapq.heappush(self._heap, (now_us + self.lease_us, key, now_us))
        return True

    def invalidate(self, key: str) -> None:
        if key in self._entries:
            self._remove(key)

    def invalidate_prefix(self, prefix: str) -> int:
        """Drop every key starting with ``prefix`` (after a d-rename).

        Bisects the sorted key index to the first candidate and walks the
        contiguous matching range — O(log n + hits) per rename.
        """
        if self._index_dirty:
            self._index = sorted(self._entries)
            self._index_dirty = False
        index = self._index
        lo = bisect_left(index, prefix)
        hi = lo
        n = len(index)
        while hi < n and index[hi].startswith(prefix):
            hi += 1
        self.prefix_scan_steps += (hi - lo) + 1
        if hi == lo:
            return 0
        entries = self._entries
        for k in index[lo:hi]:
            del entries[k]
        del index[lo:hi]
        return hi - lo

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
