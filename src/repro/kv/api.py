"""Abstract key-value store interface.

All three store implementations (LSM-tree, B+-tree, hash table) expose this
interface.  Keys and values are ``bytes``.  Ordered stores additionally
support range/prefix scans; the hash store deliberately does not (it must
full-scan), which is exactly the contrast Fig. 14 of the paper measures.
"""

from __future__ import annotations

import abc
from collections.abc import Iterator

from .meter import Meter, NullMeter


def prefix_upper_bound(prefix: bytes) -> bytes | None:
    """Smallest byte string greater than every string with ``prefix``.

    Returns ``None`` when no such bound exists — an all-``0xff`` prefix is
    a prefix of arbitrarily long all-``0xff`` keys, so any fixed cap would
    wrongly exclude keys longer than the cap.  Callers treat ``None`` as
    "scan to the end of the keyspace".
    """
    p = bytearray(prefix)
    while p:
        if p[-1] != 0xFF:
            p[-1] += 1
            return bytes(p)
        p.pop()
    return None


class GroupCommit:
    """Group-commit scope: WAL appends inside it share one write+fsync.

    ``KVStore.group()`` returns one; so do the metadata servers'
    ``group_commit()``, which pass their handler counters so that every
    scope is counted (``wal.group_commit``) and, with a WAL, so are the
    durable commit boundaries it produced (``wal.fsync`` — one fsync each
    when the log runs in sync mode).  Closing a scope that produced a
    commit charges the zero-cost ``wal_commit`` marker: the durability
    boundary shows in traces and op counts without touching virtual time.

    Re-entrant — the engines wrap a whole batched RPC in one scope while a
    handler may open its own inner group; only the outermost end writes.
    A raising body still ends the group.  Without a WAL it only counts.
    A slotted object, not a ``contextlib`` generator: a batched request
    pays ``__enter__`` and ``__exit__``, not the generator machinery.
    """

    __slots__ = ("_store", "_counters", "_wal", "_commits")

    def __init__(self, store: KVStore, counters=None):
        self._store = store
        self._counters = counters

    def __enter__(self) -> None:
        if self._counters is not None:
            self._counters.inc("wal.group_commit")
        wal = self._wal = getattr(self._store, "_wal", None)
        if wal is not None:
            self._commits = wal.commits
            wal.begin_group()

    def __exit__(self, *exc) -> None:
        wal = self._wal
        if wal is None:
            return
        before = wal.commits
        wal.end_group()
        if wal.commits != before:
            self._store._meter.charge_us(0.0, "wal_commit")
        if self._counters is not None:
            self._counters.inc("wal.fsync", wal.commits - self._commits)


class KVStore(abc.ABC):
    """Minimal KV contract: get/put/delete plus optional ordered scans."""

    #: whether ``scan``/``prefix_scan`` iterate in key order
    ordered: bool = False

    def __init__(self, meter: Meter | None = None):
        self.meter = meter if meter is not None else NullMeter()

    # ``meter`` is a property so that swapping it (handlers attach their
    # node's meter after construction) also refreshes ``self._charge``, the
    # bound-method alias the stores use on their hot paths.
    @property
    def meter(self) -> Meter:
        return self._meter

    @meter.setter
    def meter(self, meter: Meter) -> None:
        self._meter = meter
        self._charge = meter.charge

    # -- core ---------------------------------------------------------------
    @abc.abstractmethod
    def get(self, key: bytes) -> bytes | None:
        """Return the value for ``key`` or None."""

    @abc.abstractmethod
    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite ``key``."""

    @abc.abstractmethod
    def delete(self, key: bytes) -> bool:
        """Remove ``key``; returns True if it existed."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of live keys."""

    def contains(self, key: bytes) -> bool:
        return self.get(key) is not None

    # -- batched point ops -----------------------------------------------------
    # The concrete stores override these with amortized metering (the first
    # record pays the op-kind base cost, every further record only the
    # ``batch_record`` marginal cost) and, where a WAL is attached, a group
    # commit: one log write and at most one fsync for the whole batch.
    # These defaults just preserve the contract for custom stores.
    def _charge_batch(self, op: str, nbytes: int, count: int) -> None:
        """Amortized metering for one batched op: the batch pays the
        op-kind base cost once (plus all its bytes), then ``batch_record``
        for each record beyond the first — so a batch of one costs exactly
        the same as the single-record op."""
        if count == 0:
            return
        self._charge(op, nbytes)
        if count > 1:
            self._meter.charge_repeat("batch_record", count - 1)

    def multi_get(self, keys: list[bytes]) -> list[bytes | None]:
        """Point-look-up every key; returns values aligned with ``keys``."""
        return [self.get(k) for k in keys]

    def multi_put(self, pairs: list[tuple[bytes, bytes]]) -> None:
        """Insert/overwrite every pair as one batch."""
        for k, v in pairs:
            self.put(k, v)

    def group(self) -> GroupCommit:
        """Group-commit scope over this store (see :class:`GroupCommit`);
        a no-op for stores without a WAL."""
        return GroupCommit(self)

    # -- in-place helpers ----------------------------------------------------
    def append(self, key: bytes, value: bytes) -> None:
        """Append ``value`` to the existing value (Kyoto Cabinet's append).

        Default implementation is read-modify-write; stores may override
        with something cheaper.
        """
        cur = self.get(key)
        self.put(key, (cur or b"") + value)

    def write_at(self, key: bytes, offset: int, data: bytes) -> bool:
        """Overwrite ``len(data)`` bytes of the value at ``offset`` in place.

        This models LocoFS's fixed-length field update that avoids a full
        value (de)serialization (paper §3.3.3).  Returns False if the key is
        missing or the write would extend past the end of the value.
        """
        cur = self.get(key)
        if cur is None or offset + len(data) > len(cur):
            return False
        self.put(key, cur[:offset] + data + cur[offset + len(data) :])
        return True

    def read_at(self, key: bytes, offset: int, length: int) -> bytes | None:
        """Read ``length`` bytes of the value at ``offset``."""
        cur = self.get(key)
        if cur is None or offset + length > len(cur):
            return None
        return cur[offset : offset + length]

    # -- iteration ------------------------------------------------------------
    @abc.abstractmethod
    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """Iterate all live entries (ordered stores: in key order)."""

    def keys(self) -> Iterator[bytes]:
        for k, _ in self.items():
            yield k

    def scan(self, start: bytes, end: bytes | None) -> Iterator[tuple[bytes, bytes]]:
        """Iterate entries with start <= key < end (ordered stores only).

        ``end=None`` means unbounded: scan to the end of the keyspace
        (the :func:`prefix_upper_bound` "no upper bound" sentinel).
        """
        raise NotImplementedError(f"{type(self).__name__} does not support ordered scans")

    def prefix_scan(self, prefix: bytes) -> Iterator[tuple[bytes, bytes]]:
        """Iterate entries whose key starts with ``prefix``.

        Ordered stores do this as a cheap range scan; unordered stores must
        examine every record (and are charged accordingly).
        """
        raise NotImplementedError(f"{type(self).__name__} does not support prefix scans")

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:  # pragma: no cover - default no-op
        pass

    def __contains__(self, key: bytes) -> bool:
        return self.contains(key)
