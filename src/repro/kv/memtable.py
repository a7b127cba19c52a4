"""Skip-list memtable: the in-memory sorted run of the LSM store.

A classic probabilistic skip list (p = 1/4, max 12 levels — LevelDB's
parameters).  Deterministic given the seed, which keeps the property tests
reproducible.  Deletions at this layer store a tombstone marker supplied by
the LSM store; the memtable itself just maps keys to values.

Hash-indexed, as RocksDB's "hash skip-list" memtable rep is: a ``dict``
from key to node sits beside the skip list.  Point reads and overwrites of
a present key go through the dict and never descend; only inserting a new
key walks the levels (to link the node in order) and only ``remove``
unlinks one.  The ordered structure — node levels drawn from the seeded
RNG, ``items``/``scan`` order, ``approx_bytes`` accounting — is exactly
what it would be without the index, so an LSM store flushes at the same
points.
"""

from __future__ import annotations

import random
from collections.abc import Iterator

_MAX_LEVEL = 12
_P = 0.25

#: what :meth:`SkipListMemtable.lookup` returns for a key it does not hold
#: (``None`` is a stored tombstone)
ABSENT = object()


class _Node:
    __slots__ = ("key", "value", "forward")

    def __init__(self, key: bytes | None, value: bytes | None, level: int):
        self.key = key
        self.value = value
        self.forward: list[_Node | None] = [None] * level


class SkipListMemtable:
    """Sorted mapping from bytes keys to bytes values."""

    def __init__(self, seed: int = 0x5EED):
        self._rng = random.Random(seed)
        self._head = _Node(None, None, _MAX_LEVEL)
        self._level = 1
        self._count = 0
        self._approx_bytes = 0
        #: key -> its node: the point-op index
        self._index: dict[bytes, _Node] = {}

    def _find_predecessors(self, key: bytes) -> list[_Node]:
        update: list[_Node] = [self._head] * _MAX_LEVEL
        node = self._head
        for i in range(self._level - 1, -1, -1):
            nxt = node.forward[i]
            while nxt is not None and nxt.key < key:  # type: ignore[operator]
                node = nxt
                nxt = node.forward[i]
            update[i] = node
        return update

    def put(self, key: bytes, value: bytes) -> None:
        # value may be None: the LSM store uses None as a tombstone marker.
        vlen = len(value) if value is not None else 0
        node = self._index.get(key)
        if node is not None:
            self._approx_bytes += vlen - len(node.value or b"")
            node.value = value
            return
        update = self._find_predecessors(key)
        # the level draw, inline: p = 1/4 per extra level, capped
        lvl = 1
        rand = self._rng.random
        while lvl < _MAX_LEVEL and rand() < _P:
            lvl += 1
        if lvl > self._level:
            self._level = lvl
        node = self._index[key] = _Node(key, value, lvl)
        forward = node.forward
        for i in range(lvl):
            forward[i] = update[i].forward[i]
            update[i].forward[i] = node
        self._count += 1
        self._approx_bytes += len(key) + vlen + 32

    def get(self, key: bytes) -> bytes | None:
        """The stored value; ``None`` for a tombstone *or* an absent key
        (:meth:`lookup` tells the two apart)."""
        node = self._index.get(key)
        return None if node is None else node.value

    def lookup(self, key: bytes):
        """The stored value (``None`` for a tombstone), or :data:`ABSENT`."""
        node = self._index.get(key)
        return ABSENT if node is None else node.value

    def remove(self, key: bytes) -> bool:
        """Physically remove a key (used when compacting the memtable only)."""
        node = self._index.pop(key, None)
        if node is None:
            return False
        update = self._find_predecessors(key)
        for i in range(len(node.forward)):
            if update[i].forward[i] is node:
                update[i].forward[i] = node.forward[i]
        self._count -= 1
        self._approx_bytes -= len(key) + len(node.value or b"") + 32
        return True

    def __len__(self) -> int:
        return self._count

    @property
    def approx_bytes(self) -> int:
        return self._approx_bytes

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        node = self._head.forward[0]
        while node is not None:
            yield node.key, node.value  # type: ignore[misc]
            node = node.forward[0]

    def scan(self, start: bytes, end: bytes) -> Iterator[tuple[bytes, bytes]]:
        node = self._head
        for i in range(self._level - 1, -1, -1):
            nxt = node.forward[i]
            while nxt is not None and nxt.key < start:  # type: ignore[operator]
                node = nxt
                nxt = node.forward[i]
        node = node.forward[0]
        while node is not None and node.key < end:  # type: ignore[operator]
            yield node.key, node.value  # type: ignore[misc]
            node = node.forward[0]
