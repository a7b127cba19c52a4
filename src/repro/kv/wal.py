"""Write-ahead log for the KV stores.

Record framing: ``[length u32][crc32 u32][payload]`` where the payload is
``[op u8][klen u32][key][vlen u32][value]``.  ``op`` is PUT (1),
DELETE (2) or APPEND (3): an append record carries only the appended
bytes, so a directory's dirent list costs the log what its entries
weigh, not a rewrite of the whole list per entry.  NOTE (4) is handler
state no store replays (a server's reply cache, :meth:`~WriteAheadLog.notes`).
Every record of a group commit but its last has the op byte's high bit
set, so a group replays whole or not at all.  Replay stops at the first
corrupt or truncated record, which models crash recovery: the complete
groups before the tear are recovered, the rest is discarded (and a
reopened log cuts it off, so later records land where replay reaches).
"""

from __future__ import annotations

import marshal
import os
import struct
import zlib
from collections.abc import Iterator

OP_PUT = 1
OP_DELETE = 2
OP_APPEND = 3
OP_NOTE = 4

#: set in the op byte of every record of a group commit but its last
_MORE = 0x80

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
    return op & ~_MORE, key, value


class WriteAheadLog:
    """Append-only durable log with CRC-checked, group-atomic replay."""

    def __init__(self, path: str, sync: bool = False):
        self.path = path
        self.sync = sync
        self._fh = open(path, "ab")
        self._drop_torn_tail()
        #: ``(op, key, value)`` records of an open group commit (None = no group)
        self._group: list[tuple[int, bytes, bytes]] | None = None
        self._group_depth = 0
        #: durable commit boundaries: physical write-outs of one or more
        #: records — each costs exactly one fsync when ``sync`` is on
        self.commits = 0
        #: actual fsync calls issued (0 unless the log was opened with sync)
        self.syncs = 0

    def append_put(self, key: bytes, value: bytes) -> None:
        self._log(OP_PUT, key, value)

    def append_delete(self, key: bytes) -> None:
        self._log(OP_DELETE, key, b"")

    def append_tail(self, key: bytes, tail: bytes) -> None:
        """Log that ``tail`` was appended to ``key``'s value."""
        self._log(OP_APPEND, key, tail)

    def append_note(self, key: int, value) -> None:
        """Journal builtin-typed handler state as integer ``key``'s note."""
        self._log(OP_NOTE, key.to_bytes(8, "big"), marshal.dumps(value))

    def append_many(self, records) -> None:
        """Log a batch, an iterable of ``(op, key, value)`` tuples, as one
        group: it joins an open group commit, else is one of its own."""
        self.begin_group()
        self._group.extend(records)
        self.end_group()

    def _log(self, op: int, key: bytes, value: bytes) -> None:
        if self._group is not None:
            self._group.append((op, key, value))
        else:
            self._write(encode_record(op, key, value))

    def _write(self, buf: bytes) -> None:
        self._fh.write(buf)
        self.commits += 1
        if self.sync:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self.syncs += 1

    def _drop_torn_tail(self) -> None:
        """Cut the log back to its last complete group: a record appended
        behind a torn one would be lost at the next replay."""
        size = self._fh.tell()
        if not size:
            return
        with open(self.path, "rb") as fh:
            data = fh.read()
        intact = 0
        for intact, _ in self._groups(data):
            pass
        if intact < size:
            self._fh.truncate(intact)

    # -- group commit ----------------------------------------------------------
    def begin_group(self) -> None:
        """Start buffering appends; the matching ``end_group`` writes them
        as one unit that replays whole or not at all.  One fsync then
        covers every record appended inside the group: the engines open
        one per request a WAL-backed server serves.  Groups nest (a
        ``multi_put`` inside a request): only the outermost ``end_group``
        flushes.
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
        last = len(group) - 1
        self._write(b"".join([encode_record(op | _MORE if i < last else op, key, value)
                              for i, (op, key, value) in enumerate(group)]))

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
    def _groups(data: bytes) -> Iterator[tuple[int, list[bytes]]]:
        """``(end offset, payloads)`` of every complete group of ``data``,
        in order, stopping at the first truncated or corrupt record."""
        off = 0
        n = len(data)
        group: list[bytes] = []
        while off + _FRAME.size <= n:
            length, crc = _FRAME.unpack_from(data, off)
            start = off + _FRAME.size
            end = start + length
            if end > n:
                break  # truncated tail
            payload = data[start:end]
            if zlib.crc32(payload) != crc:
                break  # torn/corrupt record: stop replay
            group.append(payload)
            off = end
            if not payload[0] & _MORE:
                yield end, group
                group = []

    @staticmethod
    def replay(path: str) -> Iterator[tuple[int, bytes, bytes]]:
        """Yield (op, key, value) for every record of a complete group."""
        if not os.path.exists(path):
            return
        with open(path, "rb") as fh:
            data = fh.read()
        for _, group in WriteAheadLog._groups(data):
            for payload in group:
                yield decode_payload(payload)

    @staticmethod
    def notes(path: str | None) -> dict:
        """The last note of each key in the log at ``path``, by key."""
        out: dict = {}
        for op, key, value in WriteAheadLog.replay(path) if path else ():
            if op == OP_NOTE:
                out[int.from_bytes(key, "big")] = marshal.loads(value)
        return out
