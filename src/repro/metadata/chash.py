"""Consistent hashing ring for FMS placement (paper §3.1).

File metadata are distributed to File Metadata Servers by consistent
hashing on ``directory_uuid + file_name``.  Virtual nodes smooth the load;
the ring is deterministic (blake2b) so placement is stable across runs and
across clients.

Because every client builds its *own* ring over the same server names,
ring construction used to dominate client setup (``vnodes`` blake2b
digests per server per client, then a copy and a sort of the whole ring
per added server).  Two process-wide memos remove that:

* node → virtual-node points (the blake2b digests), hashed once per
  ``(name, vnodes)`` ever;
* node-set → sorted ring, shared as immutable tuples between rings with
  the same membership.  A membership change looks the new node set up
  *before* it touches any point, so a hit costs no copy and no sort:
  building a client's ring over its full server list
  (``ConsistentHashRing(nodes=...)``) is one frozenset and one dict
  probe, whatever the server count.  Only a miss builds the ring, from
  the membership alone: ``sorted()`` over every member's points, exactly
  the list incremental ``bisect.insort`` produced (the (point, name)
  tuples are distinct), so lookups are unchanged.

Each ring object keeps its own membership, ``version`` and lookup cache;
only the immutable tuples are shared, so one client's membership change
never touches another client's ring.  The bounded per-instance lookup
cache is keyed by the raw key bytes; the ``version`` counter bumps once
per membership change so external placement caches (see
``LocoClient._fms_for``) can invalidate.
"""

from __future__ import annotations

import bisect
import hashlib
from collections.abc import Iterable


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

    def __init__(self, vnodes: int = 128, nodes: Iterable[str] = ()):
        self.vnodes = vnodes
        self._ring: tuple[tuple[int, str], ...] = ()
        self._points: tuple[int, ...] = ()
        self._nodes: set[str] = set()
        #: bumps on every membership change; placement caches key on this
        self.version = 0
        #: bytes key -> node (lookup) and (bytes key, n) -> node tuple
        #: (lookup_n); tuple keys can't collide with bytes keys
        self._lookup_cache: dict = {}
        if nodes:
            self.add_nodes(nodes)

    def _rebuild(self) -> None:
        vnodes = self.vnodes
        memo_key = (frozenset(self._nodes), vnodes)
        cached = _RING_MEMO.pop(memo_key, None)
        if cached is None:
            ring = tuple(sorted([(p, n) for n in self._nodes
                                 for p in _node_points(n, vnodes)]))
            cached = (ring, tuple([p for p, _ in ring]))
            while len(_RING_MEMO) >= _RING_MEMO_MAX:
                # bounded LRU: evict only the coldest membership instead of
                # wholesale-clearing — churny membership (replication and
                # elasticity runs flip between a handful of node sets) keeps
                # its hot entries and never re-sorts a ring it just built
                _RING_MEMO.pop(next(iter(_RING_MEMO)))
        # (re)insert at the tail: dicts keep insertion order, so a hit
        # refreshes its recency
        _RING_MEMO[memo_key] = cached
        self._ring, self._points = cached
        self.version += 1
        self._lookup_cache.clear()

    def add_node(self, name: str) -> None:
        if name in self._nodes:
            raise ValueError(f"node already on ring: {name!r}")
        self._nodes.add(name)
        self._rebuild()

    def add_nodes(self, names: Iterable[str]) -> None:
        """Add every node in ``names`` as one membership change (one
        ``version`` bump).  A name already on the ring, or repeated in
        ``names``, raises ``ValueError`` and leaves the ring unchanged."""
        names = list(names)
        new = set(names)
        if len(new) != len(names) or new & self._nodes:
            seen = set(self._nodes)
            for name in names:
                if name in seen:
                    raise ValueError(f"node already on ring: {name!r}")
                seen.add(name)
        if new:
            self._nodes |= new
            self._rebuild()

    def remove_node(self, name: str) -> None:
        if name not in self._nodes:
            # symmetric with add_node's duplicate check: membership errors
            # on either side surface as ValueError
            raise ValueError(f"node not on ring: {name!r}")
        self._nodes.discard(name)
        self._rebuild()

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
