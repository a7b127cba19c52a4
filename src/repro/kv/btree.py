"""B+-tree key-value store (Kyoto Cabinet TreeDB analogue).

Keys are kept in sorted order, so range scans, prefix scans, and — the
property LocoFS's d-rename optimization relies on (paper §3.4.3) — cheap
*prefix moves* are supported: all sub-directories of a directory sort
contiguously under the directory's path prefix, so renaming relocates one
contiguous key range instead of scanning the whole store.

Implementation notes: order-``BRANCH`` B+-tree with a linked leaf level.
Inserts split nodes top-down; deletes remove from the leaf without
rebalancing (the tree can become sparse under heavy deletion but stays
correct and ordered — adequate for a metadata store where deletes are a
minority, and it keeps the code auditable).  An optional WAL provides
crash recovery like the LSM store.  A value grown by
:meth:`BTreeStore.append` is held in its leaf as a ``bytearray`` the store
owns, so an append copies only the appended bytes; a point read hands out
(and keeps) an immutable ``bytes`` copy, a scan hands out one as it
reaches the record.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator

from .api import KVStore, prefix_upper_bound
from .meter import Meter
from .wal import OP_APPEND, OP_DELETE, OP_PUT, WriteAheadLog

__all__ = ["BTreeStore", "prefix_upper_bound"]

BRANCH = 64  # max children of an internal node / max entries of a leaf


class _Leaf:
    __slots__ = ("keys", "values", "next")

    def __init__(self) -> None:
        self.keys: list[bytes] = []
        self.values: list[bytes] = []
        self.next: _Leaf | None = None


class _Internal:
    __slots__ = ("keys", "children")

    def __init__(self) -> None:
        # children[i] holds keys < keys[i]; children[-1] holds the rest
        self.keys: list[bytes] = []
        self.children: list[object] = []


class BTreeStore(KVStore):
    """Ordered store with O(log n) point ops and contiguous range scans."""

    ordered = True

    def __init__(self, meter: Meter | None = None, wal_path: str | None = None):
        super().__init__(meter)
        self._root: object = _Leaf()
        self._count = 0
        self._wal: WriteAheadLog | None = None
        if wal_path is not None:
            for op, key, value in WriteAheadLog.replay(wal_path):
                if op == OP_PUT:
                    self._insert(key, value)
                elif op == OP_APPEND:
                    self._grow(key, value)
                elif op == OP_DELETE:
                    self._remove(key)
            self._wal = WriteAheadLog(wal_path)

    # -- navigation ------------------------------------------------------------
    def _find_leaf(self, key: bytes, path: list | None = None) -> _Leaf:
        """The leaf that holds (or would hold) ``key`` — the one descent
        every op but :meth:`get` (which inlines it) goes through.  With
        ``path`` it also records each ``(internal node, child index)`` on
        the way down, for an insert to propagate splits back up.  The empty
        key descends leftmost: no separator is ``b""`` (a separator is the
        first key of a right half, so some key sorts below it)."""
        node = self._root
        while node.__class__ is _Internal:
            i = bisect_right(node.keys, key)
            if path is not None:
                path.append((node, i))
            node = node.children[i]
        return node  # type: ignore[return-value]

    # -- core ops ---------------------------------------------------------------
    # ``get`` / ``put`` / ``delete`` / ``append`` extend the meter's ledger
    # in place (``append``: both entries in one extend), as ``HashStore``
    # does; the engine settles it once per request.
    def get(self, key: bytes) -> bytes | None:
        node = self._root
        while node.__class__ is _Internal:
            node = node.children[bisect_right(node.keys, key)]
        keys = node.keys
        i = bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:
            value = node.values[i]
            if value.__class__ is bytearray:
                value = node.values[i] = bytes(value)
            self.meter.pending += (("get", len(key) + len(value)),)
            return value
        self.meter.pending += (("get", len(key)),)
        return None

    def put(self, key: bytes, value: bytes) -> None:
        self.meter.pending += (("put", len(key) + len(value)),)
        if self._wal is not None:
            self._wal.append_put(key, value)
        self._insert(key, value)

    def append(self, key: bytes, value: bytes) -> None:
        """Kyoto Cabinet's append, priced and executed as one.

        Charges exactly what :meth:`HashStore.append` charges (``get`` of
        the key, ``put`` of the key plus ``value``, in one ledger extend)
        and logs an append record; the value grows in place in its leaf
        (:meth:`_grow`).
        """
        klen = len(key)
        self.meter.pending += (("get", klen), ("put", klen + len(value)))
        if self._wal is not None:
            self._wal.append_tail(key, value)
        self._grow(key, value)

    def _grow(self, key: bytes, tail: bytes) -> None:
        """Uncharged, unlogged append: a present key's value grows in its
        leaf (as :func:`~repro.kv.api.grown`, inline), a missing key is
        inserted holding ``tail``."""
        leaf = self._find_leaf(key)
        keys = leaf.keys
        i = bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:
            cur = leaf.values[i]
            if cur.__class__ is bytearray:
                cur += tail
            else:
                cur = bytearray(cur)
                cur += tail
                leaf.values[i] = cur
            return
        self._insert(key, tail)

    def _insert(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite in the leaf, then split full nodes bottom-up
        along the recorded descent, growing a new root if the old one split."""
        path: list = []
        leaf = self._find_leaf(key, path)
        keys = leaf.keys
        i = bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:
            leaf.values[i] = value
            return
        keys.insert(i, key)
        leaf.values.insert(i, value)
        self._count += 1
        if len(keys) <= BRANCH:
            return
        mid = len(keys) // 2
        right = _Leaf()
        right.keys = keys[mid:]
        right.values = leaf.values[mid:]
        right.next = leaf.next
        leaf.keys = keys[:mid]
        leaf.values = leaf.values[:mid]
        leaf.next = right
        sep: bytes = right.keys[0]
        new: object = right
        while path:
            node, idx = path.pop()
            node.keys.insert(idx, sep)
            node.children.insert(idx + 1, new)
            if len(node.children) <= BRANCH:
                return
            mid = len(node.children) // 2
            up = _Internal()
            up.keys = node.keys[mid:]
            up.children = node.children[mid:]
            sep = node.keys[mid - 1]
            node.keys = node.keys[: mid - 1]
            node.children = node.children[:mid]
            new = up
        new_root = _Internal()
        new_root.keys = [sep]
        new_root.children = [self._root, new]
        self._root = new_root

    def delete(self, key: bytes) -> bool:
        self.meter.pending += (("delete", len(key)),)
        if self._wal is not None:
            self._wal.append_delete(key)
        return self._remove(key)

    def _remove(self, key: bytes) -> bool:
        leaf = self._find_leaf(key)
        keys = leaf.keys
        i = bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:
            del keys[i]
            del leaf.values[i]
            self._count -= 1
            return True
        return False

    def __len__(self) -> int:
        return self._count

    # -- batched point ops --------------------------------------------------------
    def multi_get(self, keys: list[bytes]) -> list[bytes | None]:
        out: list[bytes | None] = []
        nbytes = 0
        for key in keys:
            leaf = self._find_leaf(key)
            i = bisect_left(leaf.keys, key)
            if i < len(leaf.keys) and leaf.keys[i] == key:
                value = leaf.values[i]
                if value.__class__ is bytearray:
                    value = leaf.values[i] = bytes(value)
                nbytes += len(key) + len(value)
                out.append(value)
            else:
                nbytes += len(key)
                out.append(None)
        self._charge_batch("multi_get", nbytes, len(keys))
        return out

    def multi_put(self, pairs: list[tuple[bytes, bytes]]) -> None:
        if not pairs:
            return
        if self._wal is not None:
            self._wal.append_many((OP_PUT, k, v) for k, v in pairs)
        nbytes = 0
        for k, v in pairs:
            nbytes += len(k) + len(v)
            self._insert(k, v)
        self._charge_batch("multi_put", nbytes, len(pairs))

    # -- iteration ---------------------------------------------------------------
    # a scan settles the ledger at each leaf it leaves (BRANCH records at most)
    def items(self) -> Iterator[tuple[bytes, bytes]]:
        pending = self.meter.pending
        leaf: _Leaf | None = self._find_leaf(b"")
        while leaf is not None:
            for k, v in zip(list(leaf.keys), list(leaf.values)):
                if v.__class__ is bytearray:
                    v = bytes(v)
                pending += (("scan_record", len(k) + len(v)),)
                yield k, v
            self.meter.settle()
            leaf = leaf.next

    def scan(self, start: bytes, end: bytes | None) -> Iterator[tuple[bytes, bytes]]:
        """start <= key < end; ``end=None`` scans to the end of the keyspace."""
        pending = self.meter.pending
        pending += (("seek", len(start)),)
        leaf: _Leaf | None = self._find_leaf(start)
        i = bisect_left(leaf.keys, start)
        while leaf is not None:
            keys = list(leaf.keys)
            values = list(leaf.values)
            while i < len(keys):
                if end is not None and keys[i] >= end:
                    self.meter.settle()
                    return
                value = values[i]
                if value.__class__ is bytearray:
                    value = bytes(value)
                pending += (("scan_record", len(keys[i]) + len(value)),)
                yield keys[i], value
                i += 1
            self.meter.settle()
            leaf = leaf.next
            i = 0

    def prefix_scan(self, prefix: bytes) -> Iterator[tuple[bytes, bytes]]:
        return self.scan(prefix, prefix_upper_bound(prefix))

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()
            self._wal = None
