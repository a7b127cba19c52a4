"""Consistent hashing ring for FMS placement (paper §3.1).

File metadata are distributed to File Metadata Servers by consistent
hashing on ``directory_uuid + file_name``.  Virtual nodes smooth the load;
the ring is deterministic (blake2b) so placement is stable across runs and
across clients.

Because every client builds its *own* ring over the same server names,
ring construction used to dominate client setup (``vnodes`` blake2b
digests per server per client).  Two process-wide memos remove that:

* node → virtual-node points (the blake2b digests), hashed once per
  ``(name, vnodes)`` ever;
* node-set → sorted ring, shared as immutable tuples between rings with
  the same membership.  ``sorted()`` over the combined points produces
  exactly the list incremental ``bisect.insort`` did (the (point, name)
  tuples are distinct), so lookups are unchanged.

Each ring also keeps a bounded per-instance lookup cache keyed by the raw
key bytes; the ``version`` counter bumps on every membership change so
external placement caches (see ``LocoClient._fms_for``) can invalidate.
"""

from __future__ import annotations

import bisect
import hashlib


def _hash64(data: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


#: (name, vnodes) -> that node's ring points; tiny (one entry per distinct
#: server name), never cleared
_NODE_POINTS: dict[tuple[str, int], tuple[int, ...]] = {}

#: (frozenset of names, vnodes) -> (ring tuple, points tuple), shared
#: between identically-membered rings; capped to keep churny tests bounded
_RING_MEMO: dict[tuple[frozenset, int], tuple[tuple, tuple]] = {}
_RING_MEMO_MAX = 256

#: per-ring lookup cache bound
_LOOKUP_CACHE_MAX = 8192


def _node_points(name: str, vnodes: int) -> tuple[int, ...]:
    key = (name, vnodes)
    pts = _NODE_POINTS.get(key)
    if pts is None:
        pts = tuple(_hash64(f"{name}#{v}".encode()) for v in range(vnodes))
        _NODE_POINTS[key] = pts
    return pts


class ConsistentHashRing:
    """Classic consistent-hash ring with virtual nodes."""

    def __init__(self, vnodes: int = 128):
        self.vnodes = vnodes
        self._ring: tuple[tuple[int, str], ...] = ()
        self._points: tuple[int, ...] = ()
        self._nodes: set[str] = set()
        #: bumps on every add/remove; placement caches key on this
        self.version = 0
        #: bytes key -> node (lookup) and (bytes key, n) -> node tuple
        #: (lookup_n); tuple keys can't collide with bytes keys
        self._lookup_cache: dict = {}

    def _rebuild(self, entries) -> None:
        memo_key = (frozenset(self._nodes), self.vnodes)
        cached = _RING_MEMO.get(memo_key)
        if cached is None:
            ring = tuple(sorted(entries))
            cached = (ring, tuple(p for p, _ in ring))
            while len(_RING_MEMO) >= _RING_MEMO_MAX:
                # bounded LRU: evict only the coldest membership instead of
                # wholesale-clearing — churny membership (replication and
                # elasticity runs flip between a handful of node sets) keeps
                # its hot entries and never re-sorts a ring it just built
                _RING_MEMO.pop(next(iter(_RING_MEMO)))
        else:
            # refresh recency (dicts preserve insertion order)
            del _RING_MEMO[memo_key]
        _RING_MEMO[memo_key] = cached
        self._ring, self._points = cached
        self.version += 1
        self._lookup_cache.clear()

    def add_node(self, name: str) -> None:
        if name in self._nodes:
            raise ValueError(f"node already on ring: {name!r}")
        self._nodes.add(name)
        points = _node_points(name, self.vnodes)
        self._rebuild(list(self._ring) + [(p, name) for p in points])

    def remove_node(self, name: str) -> None:
        if name not in self._nodes:
            # symmetric with add_node's duplicate check: membership errors
            # on either side surface as ValueError
            raise ValueError(f"node not on ring: {name!r}")
        self._nodes.discard(name)
        self._rebuild([(p, n) for p, n in self._ring if n != name])

    def lookup(self, key: bytes | str) -> str:
        if not self._ring:
            raise RuntimeError("ring is empty")
        if isinstance(key, str):
            key = key.encode()
        cache = self._lookup_cache
        name = cache.get(key)
        if name is None:
            point = _hash64(key)
            idx = bisect.bisect_right(self._points, point)
            if idx == len(self._points):
                idx = 0
            name = self._ring[idx][1]
            if len(cache) >= _LOOKUP_CACHE_MAX:
                cache.clear()
            cache[key] = name
        return name

    def lookup_file(self, dir_uuid: int, name: str) -> str:
        """``lookup(file_placement_key(dir_uuid, name))`` in one frame,
        minus the per-ring memo — for callers that memoize.

        ``LocoClient._fms_for`` keeps its own (dir_uuid, name) placement
        cache, so a key that reaches the ring is (almost) always novel:
        reading *and writing* ``_lookup_cache`` for it is pure overhead —
        under a unique-key storm (a namespace build) every entry is a
        miss plus an eviction.  Same key, same hash, same bisect, same
        answer as :meth:`lookup`; the key build and the hash are inlined.
        """
        ring = self._ring
        if not ring:
            raise RuntimeError("ring is empty")
        point = int.from_bytes(hashlib.blake2b(
            dir_uuid.to_bytes(8, "big") + name.encode("utf-8"), digest_size=8
        ).digest(), "big")
        try:
            return ring[bisect.bisect_right(self._points, point)][1]
        except IndexError:  # past the last point: wrap to the first
            return ring[0][1]

    def lookup_n(self, key: bytes | str, n: int) -> list[str]:
        """The first ``n`` distinct nodes walking clockwise from the key —
        the classic replica-set selection on a consistent-hash ring.

        Shares ``_lookup_cache`` with :meth:`lookup` under ``(key, n)``
        tuple keys (type-distinct from lookup's bare bytes keys), so the
        replication hot path skips the hash + ring walk on repeats."""
        if not self._ring:
            raise RuntimeError("ring is empty")
        n = min(n, len(self._nodes))
        if isinstance(key, str):
            key = key.encode()
        cache = self._lookup_cache
        ckey = (key, n)
        hit = cache.get(ckey)
        if hit is not None:
            return list(hit)
        point = _hash64(key)
        idx = bisect.bisect_right(self._points, point)
        out: list[str] = []
        for step in range(len(self._ring)):
            name = self._ring[(idx + step) % len(self._ring)][1]
            if name not in out:
                out.append(name)
                if len(out) == n:
                    break
        if len(cache) >= _LOOKUP_CACHE_MAX:
            cache.clear()
        cache[ckey] = tuple(out)
        return out

    @property
    def nodes(self) -> set[str]:
        return set(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)


def file_placement_key(dir_uuid: int, file_name: str) -> bytes:
    """The consistent-hash key for a file: directory_uuid + file_name."""
    return dir_uuid.to_bytes(8, "big") + file_name.encode("utf-8")
