"""What the LocoFS metadata servers (FMS, DMS, shards) share: a store
behind an optional write-ahead log that a crash reduces to the log, and
the per-client reply cache behind exactly-once write-behind batches
(DESIGN §8 "Exactly-once batches")."""

from __future__ import annotations

import os

from repro.kv.meter import Meter
from repro.kv.wal import WriteAheadLog


class MetadataServer:
    """Base of the metadata server handlers.  A subclass's constructor
    sets ``store``, ``meter``, ``alloc``, ``counters``, ``touches`` and
    ``_replies``: client id -> ``(seq, results)`` of the last
    ``apply_batch`` applied for it, which answers a retry.  ``_open(path)``
    opens its store over a log (volatile state empty), ``_load()`` brings
    that state up from the store."""

    #: how many uuids are reserved per durable allocator checkpoint
    FID_RESERVE = 1024
    _FID_KEY = b"M:fid_ceiling"

    def _load(self) -> None:
        """The allocator skips the durably reserved range: ids up to it
        may be in use."""
        ceiling = self.store.get(self._FID_KEY)
        if ceiling is not None:
            self.alloc._next_fid = int.from_bytes(ceiling, "big") + 1

    def attach_meter(self, meter: Meter) -> None:
        self.store.meter = meter
        self.meter = meter

    def bind_metrics(self, registry, prefix: str) -> None:
        self.counters.bind(registry, prefix)

    def _touch(self, op: str, *parts: str) -> None:
        """Record the inode parts ``op`` touched; callers test
        ``track_touches`` first, so an untracked op pays no frame."""
        self.touches.setdefault(op, set()).update(parts)

    # -- crash/recovery (repro.sim.faults hooks) ----------------------------------
    def crash(self, torn_tail_bytes: int = 0) -> None:
        """The process dies: volatile state is lost, only the WAL survives
        — optionally with ``torn_tail_bytes`` chopped off, a crash that
        interrupted the physical write-out of a group commit.  Without a
        WAL the namespace is honestly gone on restart.
        """
        store = self.store
        wal = store._wal
        self._wal_path = wal.path if wal is not None else None
        # closing flushes buffered log records: in this simulation a record
        # handed to the OS counts as durable (the torn tail models the rest)
        store.close()
        if self._wal_path is not None and torn_tail_bytes:
            WriteAheadLog.tear_tail(self._wal_path, torn_tail_bytes)
        self._open(None)
        self._replies = {}

    def restart(self) -> int:
        """Rebuild the store, the volatile state and the reply cache by WAL
        replay; returns the replayed byte count, which the fault layer
        converts into recovery latency (``CostModel.recovery_us``) before
        the server serves again."""
        path = getattr(self, "_wal_path", None)
        nbytes = os.path.getsize(path) if path and os.path.exists(path) else 0
        self._open(path)
        self._load()
        self._replies = WriteAheadLog.notes(path)
        return nbytes
