"""Hash-table key-value store (Kyoto Cabinet HashDB analogue).

O(1) point operations but *no key ordering*: any prefix-based operation —
notably relocating a renamed directory's descendants — must examine every
record.  Fig. 14 of the paper contrasts this against the B+-tree store.

A value grown by :meth:`HashStore.append` is held as a ``bytearray`` the
store owns, so each append copies only the appended bytes; a point read
hands out (and keeps) an immutable ``bytes`` copy, a scan hands out one as
it reaches the record.
"""

from __future__ import annotations

from collections.abc import Iterator

from .api import KVStore, grown
from .meter import SCAN_SETTLE_EVERY, Meter
from .wal import OP_APPEND, OP_DELETE, OP_PUT, WriteAheadLog


class HashStore(KVStore):
    """dict-backed unordered store with full-scan prefix operations."""

    ordered = False

    def __init__(self, meter: Meter | None = None, wal_path: str | None = None):
        super().__init__(meter)
        self._data: dict[bytes, bytes] = {}
        self._wal: WriteAheadLog | None = None
        if wal_path is not None:
            for op, key, value in WriteAheadLog.replay(wal_path):
                if op == OP_PUT:
                    self._data[key] = value
                elif op == OP_APPEND:
                    self._data[key] = grown(self._data.get(key), value)
                elif op == OP_DELETE:
                    self._data.pop(key, None)
            self._wal = WriteAheadLog(wal_path)

    def get(self, key: bytes) -> bytes | None:
        value = self._data.get(key)
        if value.__class__ is bytearray:
            value = self._data[key] = bytes(value)
        self.meter.pending += (
            ("get", len(key) + (len(value) if value is not None else 0)),)
        return value

    def put(self, key: bytes, value: bytes) -> None:
        self.meter.pending += (("put", len(key) + len(value)),)
        if self._wal is not None:
            self._wal.append_put(key, value)
        self._data[key] = value

    def delete(self, key: bytes) -> bool:
        self.meter.pending += (("delete", len(key)),)
        if self._wal is not None:
            self._wal.append_delete(key)
        return self._data.pop(key, None) is not None

    def __len__(self) -> int:
        return len(self._data)

    def put_pair(self, k1: bytes, v1: bytes, k2: bytes, v2: bytes) -> None:
        """Two puts in one call (the decoupled-inode write: access+content).

        Metering is bit-identical to ``put(k1, v1)`` + ``put(k2, v2)``
        (same ops, same byte counts, same order: both ledger entries in
        one extend); the create hot path pays one store frame instead of
        two.
        """
        self.meter.pending += (("put", len(k1) + len(v1)),
                               ("put", len(k2) + len(v2)))
        wal = self._wal
        if wal is not None:
            wal.append_put(k1, v1)
            wal.append_put(k2, v2)
        data = self._data
        data[k1] = v1
        data[k2] = v2

    def append(self, key: bytes, value: bytes) -> None:
        """Kyoto Cabinet's append, priced and executed as one.

        Charges ``get`` of the key and ``put`` of the key plus ``value``
        in one ledger extend, whatever the value already holds, and logs
        an append record with ``value`` alone.  The stored value grows in
        place (:func:`~repro.kv.api.grown`, inline): the first append to a
        key stores ``value``, the next copies it into a ``bytearray``, and
        every later one adds only its own bytes.
        """
        klen = len(key)
        self.meter.pending += (("get", klen), ("put", klen + len(value)))
        if self._wal is not None:
            self._wal.append_tail(key, value)
        data = self._data
        cur = data.get(key)
        if cur is None:
            data[key] = value
        elif cur.__class__ is bytearray:
            cur += value
        else:
            cur = bytearray(cur)
            cur += value
            data[key] = cur

    def write_at(self, key: bytes, offset: int, data: bytes) -> bool:
        """In-place field write with the read-modify-write in one frame.

        Same result, stored bytes and metering as the default ``get(key)``
        + ``put(key, new)``: a hit charges ``get`` then ``put`` in one
        ledger extend (as :meth:`append` does), a miss or an out-of-range
        write only the ``get`` the default charges.
        """
        store = self._data
        cur = store.get(key)
        klen = len(key)
        if cur is None:
            self.meter.pending += (("get", klen),)
            return False
        n = len(cur)
        end = offset + len(data)
        if end > n:
            self.meter.pending += (("get", klen + n),)
            return False
        new = cur[:offset] + data + cur[end:]
        self.meter.pending += (("get", klen + n), ("put", klen + len(new)))
        if self._wal is not None:
            self._wal.append_put(key, new)
        store[key] = new
        return True

    # -- batched point ops ---------------------------------------------------------
    def multi_get(self, keys: list[bytes]) -> list[bytes | None]:
        data = self._data
        out: list[bytes | None] = []
        nbytes = 0
        for key in keys:
            value = data.get(key)
            if value.__class__ is bytearray:
                value = data[key] = bytes(value)
            nbytes += len(key) + (len(value) if value is not None else 0)
            out.append(value)
        self._charge_batch("multi_get", nbytes, len(keys))
        return out

    def multi_put(self, pairs: list[tuple[bytes, bytes]]) -> None:
        if not pairs:
            return
        if self._wal is not None:
            self._wal.append_many((OP_PUT, k, v) for k, v in pairs)
        data = self._data
        nbytes = 0
        for k, v in pairs:
            nbytes += len(k) + len(v)
            data[k] = v
        self._charge_batch("multi_put", nbytes, len(pairs))

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        return self.prefix_scan(b"")

    def prefix_scan(self, prefix: bytes) -> Iterator[tuple[bytes, bytes]]:
        """Full scan: every record is examined (and charged) regardless of match."""
        pending = self.meter.pending
        for i, (k, v) in enumerate(list(self._data.items()), 1):
            if v.__class__ is bytearray:
                v = bytes(v)
            pending += (("scan_record", len(k) + len(v)),)
            if not i % SCAN_SETTLE_EVERY:
                self.meter.settle()
            if not prefix or k.startswith(prefix):
                yield k, v
        self.meter.settle()

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()
            self._wal = None
