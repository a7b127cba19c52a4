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


def grown(cur: bytes | None, tail: bytes) -> bytes:
    """``cur + tail`` for a store that owns ``cur``: a ``bytearray`` it
    made grows in place (amortised O(len(tail))), ``bytes`` are copied
    once into a new ``bytearray``, and an absent value becomes ``tail``.
    ``HashStore``'s WAL replay calls it; the append paths inline it, a
    Python call fewer per create."""
    if cur is None:
        return tail
    if cur.__class__ is not bytearray:
        cur = bytearray(cur)
    cur += tail
    return cur


class GroupCommit:
    """Group-commit scope: WAL appends inside it share one write+fsync and
    replay whole or not at all.

    The engines open one around every request a WAL-backed server serves
    (DESIGN §8), so one request is one durable unit; nothing else opens
    one.  Each durable commit boundary it produced is counted
    (``wal.fsync`` on ``counters``, when given — one fsync each when the
    log runs in sync mode) and charges the zero-cost ``wal_commit``
    marker: the durability boundary shows in traces and op counts
    without touching virtual time.

    A raising body still ends the group.  A slotted object, not a
    ``contextlib`` generator: a request pays ``__enter__`` and
    ``__exit__``, not the generator machinery.
    """

    __slots__ = ("_store", "_counters", "_wal")

    def __init__(self, store: KVStore, counters=None):
        self._store = store
        self._counters = counters
        self._wal = store._wal

    def __enter__(self) -> None:
        self._wal.begin_group()

    def __exit__(self, *exc) -> None:
        wal = self._wal
        before = wal.commits
        wal.end_group()
        if wal.commits != before:
            self._store.meter.pending += (("wal_commit", None, 0.0),)
            if self._counters is not None:
                self._counters.inc("wal.fsync")


class KVStore(abc.ABC):
    """Minimal KV contract: get/put/delete plus optional ordered scans."""

    #: whether ``scan``/``prefix_scan`` iterate in key order
    ordered: bool = False

    #: the store's write-ahead log; stores that keep one set it per instance
    _wal = None

    def __init__(self, meter: Meter | None = None):
        #: handlers swap in their node's meter after construction
        self.meter = meter if meter is not None else NullMeter()

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
    # Every store has ``multi_get``; the FMS's hash store and the B+-tree
    # also have ``multi_put``.  Both meter amortized (the first record pays
    # the op-kind base cost, every further record only the ``batch_record``
    # marginal cost) and, where a WAL is attached, group-commit: one log
    # write and at most one fsync for the whole batch.
    def _charge_batch(self, op: str, nbytes: int, count: int) -> None:
        """Amortized metering for one batched op: the batch pays the
        op-kind base cost once (plus all its bytes), then ``batch_record``
        for each record beyond the first — so a batch of one costs exactly
        the same as the single-record op."""
        if count:
            self.meter.pending += ((op, nbytes),) + (("batch_record", 0),) * (count - 1)

    # -- in-place helpers ----------------------------------------------------
    def append(self, key: bytes, value: bytes) -> None:
        """Append ``value`` to the existing value (Kyoto Cabinet's append).

        Priced as KC prices it, whatever the value already holds: a
        ``get`` of the key alone, then a ``put`` of the key and the
        appended bytes (``costmodel.py`` states why).  ``HashStore`` and
        ``BTreeStore`` also execute it in amortised O(appended bytes);
        ``LSMStore`` overrides it with a read-modify-write, priced as one,
        because LevelDB has no append.  This default keeps the contract
        for other stores: it charges the native price, then runs the
        ``get`` + ``put`` under a throwaway meter.
        """
        meter = self.meter
        klen = len(key)
        meter.pending += (("get", klen), ("put", klen + len(value)))
        self.meter = Meter()
        try:
            cur = self.get(key)
            self.put(key, value if cur is None else cur + value)
        finally:
            self.meter = meter

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
    # Every store also has ``prefix_scan(prefix)``: a range scan on the
    # ordered stores, a full scan charged per record on the hash store.
    @abc.abstractmethod
    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """Iterate all live entries (ordered stores: in key order)."""

    def move_prefix(self, old_prefix: bytes, new_prefix: bytes) -> int:
        """Rewrite every key under ``old_prefix`` to start with ``new_prefix``
        (d-rename support); returns the number of records moved.  It costs
        what :meth:`prefix_scan` costs: ``O(moved)`` on an ordered store,
        whose affected keys form one contiguous range, and a walk of the
        whole store on the hash store."""
        moved = list(self.prefix_scan(old_prefix))
        for k, _ in moved:
            self.delete(k)
        for k, v in moved:
            self.put(new_prefix + k[len(old_prefix) :], v)
        return len(moved)

    def keys(self) -> Iterator[bytes]:
        for k, _ in self.items():
            yield k

    def scan(self, start: bytes, end: bytes | None) -> Iterator[tuple[bytes, bytes]]:
        """Iterate entries with start <= key < end (ordered stores only).

        ``end=None`` means unbounded: scan to the end of the keyspace
        (the :func:`prefix_upper_bound` "no upper bound" sentinel).
        """
        raise NotImplementedError(f"{type(self).__name__} does not support ordered scans")

    def __contains__(self, key: bytes) -> bool:
        return self.contains(key)
