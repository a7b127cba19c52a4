"""Consistent hashing ring for FMS placement (paper §3.1).

File metadata are distributed to File Metadata Servers by consistent
hashing on ``directory_uuid + file_name``.  Virtual nodes smooth the load;
the ring is deterministic (blake2b) so placement is stable across runs and
across clients.

How many virtual nodes is a rule, not a tuning: :data:`DEFAULT_VNODES` is
the smallest power of two whose worst arc share, over every membership
``fms0 .. fmsN-1`` with N = 2 .. 16, is at most :data:`ARC_SHARE_BOUND`
times the mean share (``tests/test_metadata.py`` checks it).  Worst arc
share over the mean, at N = 2 .. 16 / N = 8 / N = 16:

    V = 128    1.174 / 1.132 / 1.158
    V = 256    1.119 / 1.051 / 1.093
    V = 512    1.072 / 1.050 / 1.059
    V = 1024   1.076 / 1.037 / 1.053

A server's share of the keys is its share of the ring's arcs: at 128 the
busiest FMS of an 8-server create storm was 1.17x the mean busy time.

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
  pairs are distinct), so lookups are unchanged.

The ring is stored compactly: two parallel tuples, the sorted points and
the owner of each, and no (point, name) tuple per virtual node.  A point's
int is the one :data:`_NODE_POINTS` already holds and an owner is a
reference to its node's name, so a ring costs two pointers per virtual
node.

Each ring object keeps its own membership, ``version`` and lookup cache;
only the immutable tuples are shared, so one client's membership change
never touches another client's ring.  The bounded per-instance lookup
cache (:data:`_LOOKUP_CACHE_MAX` entries) is the only placement memo: a
client binds :meth:`ConsistentHashRing.lookup_file` as its ``_fms_for``
and keeps no cache of its own.  Every membership change clears it and
bumps ``version``.
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

#: (frozenset of names, vnodes) -> (points tuple, owners tuple), shared
#: between identically-membered rings; capped to keep churny tests bounded
_RING_MEMO: dict[tuple[frozenset, int], tuple[tuple, tuple]] = {}
_RING_MEMO_MAX = 256

#: per-ring lookup cache bound
_LOOKUP_CACHE_MAX = 8192

#: virtual nodes per server: the smallest power of two that keeps every
#: member's arc share within ARC_SHARE_BOUND of the mean (module docstring)
DEFAULT_VNODES = 512
ARC_SHARE_BOUND = 1.08


def _node_points(name: str, vnodes: int) -> tuple[int, ...]:
    key = (name, vnodes)
    pts = _NODE_POINTS.get(key)
    if pts is None:
        pts = tuple(_hash64(f"{name}#{v}".encode()) for v in range(vnodes))
        _NODE_POINTS[key] = pts
    return pts


class ConsistentHashRing:
    """Classic consistent-hash ring with virtual nodes."""

    def __init__(self, vnodes: int = DEFAULT_VNODES, nodes: Iterable[str] = ()):
        self.vnodes = vnodes
        #: sorted virtual-node points, and the node owning each
        self._points: tuple[int, ...] = ()
        self._owners: tuple[str, ...] = ()
        self._nodes: set[str] = set()
        #: bumps on every membership change (which also clears the memo)
        self.version = 0
        #: bytes key -> node (lookup), (dir_uuid, name) -> node
        #: (lookup_file) and (bytes key, n) -> node tuple (lookup_n); the
        #: three key shapes can't collide
        self._lookup_cache: dict = {}
        if nodes:
            self.add_nodes(nodes)

    def _rebuild(self) -> None:
        vnodes = self.vnodes
        memo_key = (frozenset(self._nodes), vnodes)
        cached = _RING_MEMO.pop(memo_key, None)
        if cached is None:
            ring = sorted([(p, n) for n in self._nodes
                           for p in _node_points(n, vnodes)])
            cached = (tuple([p for p, _ in ring]), tuple([n for _, n in ring]))
            while len(_RING_MEMO) >= _RING_MEMO_MAX:
                # bounded LRU: evict only the coldest membership instead of
                # wholesale-clearing — churny membership (replication and
                # elasticity runs flip between a handful of node sets) keeps
                # its hot entries and never re-sorts a ring it just built
                _RING_MEMO.pop(next(iter(_RING_MEMO)))
        # (re)insert at the tail: dicts keep insertion order, so a hit
        # refreshes its recency
        _RING_MEMO[memo_key] = cached
        self._points, self._owners = cached
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
        if not self._owners:
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
            name = self._owners[idx]
            if len(cache) >= _LOOKUP_CACHE_MAX:
                cache.clear()
            cache[key] = name
        return name

    def lookup_file(self, dir_uuid: int, name: str) -> str:
        """``lookup(file_placement_key(dir_uuid, name))`` in one frame.

        Memoized in ``_lookup_cache`` under the ``(dir_uuid, name)`` key,
        which cannot collide with :meth:`lookup`'s bytes keys or
        :meth:`lookup_n`'s ``(bytes, n)`` keys (an int is never bytes).  A
        miss is the same key, hash and bisect as :meth:`lookup`, with the
        key build and the hash inlined.  ``LocoClient`` binds this method
        as its ``_fms_for``: a hit costs one frame and one dict probe.
        """
        cache = self._lookup_cache
        key = (dir_uuid, name)
        fms = cache.get(key)
        if fms is None:
            owners = self._owners
            if not owners:
                raise RuntimeError("ring is empty")
            point = int.from_bytes(hashlib.blake2b(
                dir_uuid.to_bytes(8, "big") + name.encode("utf-8"), digest_size=8
            ).digest(), "big")
            try:
                fms = owners[bisect.bisect_right(self._points, point)]
            except IndexError:  # past the last point: wrap to the first
                fms = owners[0]
            if len(cache) >= _LOOKUP_CACHE_MAX:
                cache.clear()
            cache[key] = fms
        return fms

    def lookup_n(self, key: bytes | str, n: int) -> list[str]:
        """The first ``n`` distinct nodes walking clockwise from the key —
        the classic replica-set selection on a consistent-hash ring.

        Shares ``_lookup_cache`` with :meth:`lookup` under ``(key, n)``
        tuple keys (type-distinct from lookup's bare bytes keys), so the
        replication hot path skips the hash + ring walk on repeats."""
        owners = self._owners
        if not owners:
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
        size = len(owners)
        for step in range(size):
            name = owners[(idx + step) % size]
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
