"""LSM-tree key-value store (LevelDB analogue).

Write path: WAL append, then skip-list memtable; when the memtable exceeds
``memtable_limit`` bytes it is flushed to an immutable SSTable.  When more
than ``max_tables`` SSTables accumulate they are merge-compacted into one
(size-tiered compaction — simpler than leveled, same asymptotics for the
workloads here).  Reads consult memtable first, then SSTables newest-first
with a bloom-filter skip.

Deletions write a tombstone (``None`` value) that shadows older versions
and is dropped during full compaction.
"""

from __future__ import annotations

import heapq
import os
import shutil
import tempfile
from collections.abc import Iterator

from .api import KVStore, prefix_upper_bound
from .memtable import ABSENT, SkipListMemtable
from .meter import SCAN_SETTLE_EVERY, Meter
from .sstable import SSTable, SSTableBuilder
from .wal import OP_DELETE, OP_PUT, WriteAheadLog

__all__ = ["LSMStore", "prefix_upper_bound"]


class LSMStore(KVStore):
    """LevelDB-like store.  ``ordered`` supports range and prefix scans."""

    ordered = True

    def __init__(
        self,
        directory: str | None = None,
        memtable_limit: int = 4 << 20,
        max_tables: int = 6,
        meter: Meter | None = None,
        wal_enabled: bool = True,
        seed: int = 0x5EED,
    ):
        super().__init__(meter)
        #: where the WAL and SSTables live.  A caller-given directory is
        #: recovered from; without one the store makes a temporary
        #: directory only when a file first needs it (the WAL, the first
        #: flush) and :meth:`close` removes it, so a WAL-less store that
        #: never flushes touches no filesystem at all
        self.directory = directory
        self._own_dir = directory is None
        self.memtable_limit = memtable_limit
        self.max_tables = max_tables
        self._seed = seed
        self._mem = SkipListMemtable(seed=seed)
        self._tables: list[SSTable] = []  # newest first
        self._next_seq = 1
        self._wal: WriteAheadLog | None = None
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            self._recover()
        if wal_enabled:
            self._wal = WriteAheadLog(self._path("wal.log"))

    def _path(self, name: str) -> str:
        """``name`` inside the store's directory, made on first need."""
        if self.directory is None:
            self.directory = tempfile.mkdtemp(prefix="lsm-")
        return os.path.join(self.directory, name)

    # -- recovery --------------------------------------------------------------
    def _recover(self) -> None:
        """Load existing SSTables and replay the WAL into the memtable."""
        seqs = []
        for name in os.listdir(self.directory):
            if name.endswith(".sst"):
                table = SSTable(self._path(name))
                seqs.append(table.file_seq)
                self._tables.append(table)
        self._tables.sort(key=lambda t: t.file_seq, reverse=True)
        if seqs:
            self._next_seq = max(seqs) + 1
        for op, key, value in WriteAheadLog.replay(self._path("wal.log")):
            if op == OP_PUT:
                self._mem.put(key, value)
            elif op == OP_DELETE:
                self._mem.put(key, None)

    # -- core ops ----------------------------------------------------------------
    # Point ops extend the meter's ledger in place (``append``: both
    # entries in one extend), as in ``HashStore`` / ``BTreeStore``; the
    # engine settles it once per request.  A point read
    # is one memtable ``lookup`` (a hash probe, no skip-list descent); only
    # a key the memtable does not hold falls through to the SSTables.
    def put(self, key: bytes, value: bytes) -> None:
        self.meter.pending += (("put", len(key) + len(value)),)
        if self._wal is not None:
            self._wal.append_put(key, value)
        mem = self._mem
        mem.put(key, value)
        if mem._approx_bytes >= self.memtable_limit:
            self.flush()

    def get(self, key: bytes) -> bytes | None:
        value = self._mem.lookup(key)
        if value is ABSENT:
            value = self._table_get(key) if self._tables else None
        self.meter.pending += (
            ("get", len(key) + (len(value) if value is not None else 0)),)
        return value

    def _get_impl(self, key: bytes) -> bytes | None:
        """:meth:`get` without the charge."""
        value = self._mem.lookup(key)
        return self._table_get(key) if value is ABSENT else value

    def _table_get(self, key: bytes) -> bytes | None:
        """The newest SSTable version of ``key`` (``None``: absent or a
        tombstone)."""
        for table in self._tables:
            found, value = table.get(key)
            if found:
                return value
        return None

    def append(self, key: bytes, value: bytes) -> None:
        """Read-modify-write append in one store frame.

        Metering, stored bytes and WAL records are bit-identical to the
        ``KVStore.append`` default (``get(key)`` + ``put(key, cur +
        value)``): both charges go to the ledger in one extend, as in
        :meth:`HashStore.append`.
        """
        mem = self._mem
        cur = mem.lookup(key)
        if cur is ABSENT:
            cur = self._table_get(key) if self._tables else None
        klen = len(key)
        if cur is None:
            new = value
            self.meter.pending += (("get", klen), ("put", klen + len(value)))
        else:
            new = cur + value
            self.meter.pending += (("get", klen + len(cur)),
                                   ("put", klen + len(new)))
        if self._wal is not None:
            self._wal.append_put(key, new)
        mem.put(key, new)
        if mem._approx_bytes >= self.memtable_limit:
            self.flush()

    def delete(self, key: bytes) -> bool:
        self.meter.pending += (("delete", len(key)),)
        existed = self.get(key) is not None
        if self._wal is not None:
            self._wal.append_delete(key)
        mem = self._mem
        mem.put(key, None)
        if mem._approx_bytes >= self.memtable_limit:
            self.flush()
        return existed

    def __len__(self) -> int:
        """Count of live keys.  O(n) — intended for tests and reporting."""
        return sum(1 for _ in self.items())

    # -- batched point ops ---------------------------------------------------------
    def multi_get(self, keys: list[bytes]) -> list[bytes | None]:
        out: list[bytes | None] = []
        nbytes = 0
        for key in keys:
            value = self._get_impl(key)
            nbytes += len(key) + (len(value) if value is not None else 0)
            out.append(value)
        self._charge_batch("multi_get", nbytes, len(keys))
        return out

    # -- iteration ------------------------------------------------------------------
    def _merged(self, start: bytes | None, end: bytes | None) -> Iterator[tuple[bytes, bytes | None]]:
        """Merge memtable + all tables, newest version wins, keys ordered."""
        sources: list[Iterator[tuple[bytes, bytes | None]]] = []
        if start is None:
            sources.append(iter(list(self._mem.items())))
            sources.extend(t.items() for t in self._tables)
        else:
            assert end is not None
            sources.append(iter(list(self._mem.scan(start, end))))
            sources.extend(t.scan(start, end) for t in self._tables)
        # age: 0 = memtable (newest), then tables newest-first
        heap: list[tuple[bytes, int, bytes | None, int]] = []
        iters = []
        for age, src in enumerate(sources):
            iters.append(src)
            try:
                k, v = next(src)
                heap.append((k, age, v, age))
            except StopIteration:
                pass
        heapq.heapify(heap)
        last_key: bytes | None = None
        while heap:
            k, age, v, idx = heapq.heappop(heap)
            try:
                nk, nv = next(iters[idx])
                heapq.heappush(heap, (nk, idx, nv, idx))
            except StopIteration:
                pass
            if k == last_key:
                continue  # an older version of an already-emitted key
            last_key = k
            if v is not None:  # a tombstone hides the older versions only
                yield k, v

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        return self._charged(self._merged(None, None))

    def scan(self, start: bytes, end: bytes | None) -> Iterator[tuple[bytes, bytes]]:
        """start <= key < end; ``end=None`` scans to the end of the keyspace."""
        self.meter.pending += (("seek", len(start)),)
        if end is None:
            # unbounded upper end: merge everything and fast-forward to start
            source = (kv for kv in self._merged(None, None) if kv[0] >= start)
        else:
            source = self._merged(start, end)
        yield from self._charged(source)

    def _charged(self, records) -> Iterator[tuple[bytes, bytes]]:
        """``records``, each charged a ``scan_record`` as it is reached."""
        pending = self.meter.pending
        for i, (k, v) in enumerate(records, 1):
            pending += (("scan_record", len(k) + len(v)),)
            if not i % SCAN_SETTLE_EVERY:
                self.meter.settle()
            yield k, v
        self.meter.settle()

    def prefix_scan(self, prefix: bytes) -> Iterator[tuple[bytes, bytes]]:
        return self.scan(prefix, prefix_upper_bound(prefix))

    # -- flush & compaction ------------------------------------------------------------
    def flush(self) -> None:
        """Flush the memtable to a new L0 SSTable and reset the WAL."""
        if len(self._mem) == 0:
            return
        path = self._path(f"{self._next_seq:08d}.sst")
        builder = SSTableBuilder(path, file_seq=self._next_seq)
        self._next_seq += 1
        for k, v in self._mem.items():
            builder.add(k, v)
        self._tables.insert(0, builder.finish())
        self._mem = SkipListMemtable(seed=self._seed)
        if self._wal is not None:
            self._wal.truncate()
        self.meter.pending += (("flush", 0),)
        if len(self._tables) > self.max_tables:
            self.compact()

    def compact(self) -> None:
        """Merge every SSTable into one, dropping tombstones and shadowed versions."""
        if not self._tables:
            return
        merged = []
        heap: list[tuple[bytes, int, bytes | None, int]] = []
        iters = [t.items() for t in self._tables]
        for age, src in enumerate(iters):
            try:
                k, v = next(src)
                heap.append((k, age, v, age))
            except StopIteration:
                pass
        heapq.heapify(heap)
        last_key: bytes | None = None
        while heap:
            k, age, v, idx = heapq.heappop(heap)
            try:
                nk, nv = next(iters[idx])
                heapq.heappush(heap, (nk, idx, nv, idx))
            except StopIteration:
                pass
            if k == last_key:
                continue
            last_key = k
            if v is not None:
                merged.append((k, v))
        old = self._tables
        self._tables = []
        if merged:
            path = self._path(f"{self._next_seq:08d}.sst")
            builder = SSTableBuilder(path, file_seq=self._next_seq)
            self._next_seq += 1
            for k, v in merged:
                builder.add(k, v)
            self._tables = [builder.finish()]
        for t in old:
            t.remove_file()
        self.meter.pending += (("compaction", 0),)

    @property
    def num_tables(self) -> int:
        return len(self._tables)

    def close(self) -> None:
        """Close the WAL; remove the directory if the store made it.

        Every table is memory-resident, so reads still work afterwards;
        a flush after ``close`` would make a fresh directory.
        """
        if self._wal is not None:
            self._wal.close()
            self._wal = None
        if self._own_dir and self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)
            self.directory = None
