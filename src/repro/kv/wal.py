"""Write-ahead log for the KV stores.

Record framing: ``[length u32][crc32 u32][payload]`` where the payload is
``[op u8][klen u32][key][vlen u32][value]``.  ``op`` is PUT (1),
DELETE (2) or APPEND (3): an append record carries only the appended
bytes, so a directory's dirent list costs the log what its entries
weigh, not a rewrite of the whole list per entry.  Replay stops at the
first corrupt or truncated record, which models crash recovery:
everything before the tear is recovered, the tail is discarded (and a
reopened log cuts it off, so later records land where replay reaches).
"""

from __future__ import annotations

import os
import struct
import zlib
from collections.abc import Iterator

OP_PUT = 1
OP_DELETE = 2
OP_APPEND = 3

_FRAME = struct.Struct("<II")


def encode_record(op: int, key: bytes, value: bytes = b"") -> bytes:
    payload = struct.pack("<BI", op, len(key)) + key + struct.pack("<I", len(value)) + value
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def decode_payload(payload: bytes) -> tuple[int, bytes, bytes]:
    op, klen = struct.unpack_from("<BI", payload, 0)
    off = 5
    key = payload[off : off + klen]
    off += klen
    (vlen,) = struct.unpack_from("<I", payload, off)
    off += 4
    value = payload[off : off + vlen]
    return op, key, value


class WriteAheadLog:
    """Append-only durable log with CRC-checked replay."""

    def __init__(self, path: str, sync: bool = False):
        self.path = path
        self.sync = sync
        self._fh = open(path, "ab")
        self._drop_torn_tail()
        #: buffered records while a group commit is open (None = no group)
        self._group: list[bytes] | None = None
        self._group_depth = 0
        #: durable commit boundaries: physical write-outs of one or more
        #: records — each costs exactly one fsync when ``sync`` is on
        self.commits = 0
        #: actual fsync calls issued (0 unless the log was opened with sync)
        self.syncs = 0

    def append_put(self, key: bytes, value: bytes) -> None:
        self._append(encode_record(OP_PUT, key, value))

    def append_delete(self, key: bytes) -> None:
        self._append(encode_record(OP_DELETE, key))

    def append_tail(self, key: bytes, tail: bytes) -> None:
        """Log that ``tail`` was appended to ``key``'s value."""
        self._append(encode_record(OP_APPEND, key, tail))

    def append_many(self, records) -> None:
        """Group-commit a batch: one write (and at most one fsync) for all
        of ``records``, an iterable of ``(op, key, value)`` tuples."""
        buf = b"".join(encode_record(op, key, value) for op, key, value in records)
        if buf:
            self._append(buf)

    def _append(self, record: bytes) -> None:
        if self._group is not None:
            self._group.append(record)
            return
        self._fh.write(record)
        self.commits += 1
        if self.sync:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self.syncs += 1

    def _drop_torn_tail(self) -> None:
        """Cut the log back to its last intact record.  Replay stops at a
        torn record, so a record appended behind one would be lost at the
        next replay: a log reopened after a torn crash must end where
        replay stopped."""
        size = self._fh.tell()
        if not size:
            return
        with open(self.path, "rb") as fh:
            data = fh.read()
        intact = 0
        for intact, _ in self._intact(data):
            pass
        if intact < size:
            self._fh.truncate(intact)

    # -- group commit ----------------------------------------------------------
    def begin_group(self) -> None:
        """Start buffering appends; the matching ``end_group`` writes them
        as one unit.  One fsync then covers every record appended inside
        the group — the durability amortization behind the batched RPC
        path.  Groups nest: only the outermost ``end_group`` flushes.
        """
        if self._group is None:
            self._group = []
        self._group_depth += 1

    def end_group(self) -> None:
        if self._group_depth > 1:
            self._group_depth -= 1
            return
        group, self._group = self._group, None
        self._group_depth = 0
        if not group:
            return
        self._fh.write(b"".join(group))
        self.commits += 1
        if self.sync:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self.syncs += 1

    def flush(self) -> None:
        self._fh.flush()

    def truncate(self) -> None:
        """Discard the log contents (after a successful memtable flush).

        A truncate can land *inside* an open group: the LSM store flushes
        its memtable from ``put`` when it overflows, and ``put`` is legal
        within ``begin_group``/``end_group``.  Records buffered before the
        truncate describe state the flush just made durable in an SSTable,
        so they must not be resurrected into the fresh log by the
        outermost ``end_group`` — drop the buffered records but keep the
        group open (same depth) so later appends still batch correctly.
        """
        self._fh.close()
        self._fh = open(self.path, "wb")
        if self._group:
            self._group.clear()

    def close(self) -> None:
        self._fh.close()

    @staticmethod
    def tear_tail(path: str, nbytes: int) -> None:
        """Chop ``nbytes`` off the end of the log — a torn write.

        Models a crash that interrupts the physical write-out of the last
        commit: the tail record(s) lose bytes, so replay's CRC/length check
        stops in front of them.  Used by the fault-injection layer
        (``FaultSchedule.crash(..., torn_tail_bytes=N)``) and the
        crash-during-group-commit tests.
        """
        if nbytes <= 0 or not os.path.exists(path):
            return
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(max(0, size - nbytes))

    @staticmethod
    def _intact(data: bytes) -> Iterator[tuple[int, bytes]]:
        """``(end offset, payload)`` of every intact record of ``data``, in
        order, stopping at the first truncated or corrupt one."""
        off = 0
        n = len(data)
        while off + _FRAME.size <= n:
            length, crc = _FRAME.unpack_from(data, off)
            start = off + _FRAME.size
            end = start + length
            if end > n:
                break  # truncated tail
            payload = data[start:end]
            if zlib.crc32(payload) != crc:
                break  # torn/corrupt record: stop replay
            yield end, payload
            off = end

    @staticmethod
    def replay(path: str) -> Iterator[tuple[int, bytes, bytes]]:
        """Yield (op, key, value) for every intact record in the log."""
        if not os.path.exists(path):
            return
        with open(path, "rb") as fh:
            data = fh.read()
        for _, payload in WriteAheadLog._intact(data):
            yield decode_payload(payload)
