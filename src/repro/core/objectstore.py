"""Object store for file data (paper §3.1, §3.3.2).

LocoFS organizes file data into objects the way Ceph does; what matters
for the reproduction is the *addressing*: a data block is identified by
``uuid + blk_num`` and located by consistent hashing, so no per-file block
index exists anywhere — that is the "indexing metadata removal" that
shrinks the file inode (§3.3.2), and it is why neither f-rename nor
d-rename ever relocates data.
"""

from __future__ import annotations

from repro.common.stats import Counters
from repro.kv import HashStore
from repro.kv.meter import Meter
from repro.metadata.chash import ConsistentHashRing


def block_key(uuid: int, blk_num: int) -> bytes:
    return uuid.to_bytes(8, "big") + blk_num.to_bytes(8, "big")


class ObjectStoreServer:
    """One object server holding data blocks keyed by uuid + blk_num."""

    def __init__(self, sid: int):
        self.sid = sid
        self.store = HashStore()
        self.meter = self.store.meter
        #: data-path volume telemetry; mirrored as ``obj<i>.*`` when bound
        self.counters = Counters()

    def attach_meter(self, meter: Meter) -> None:
        self.store.meter = meter
        self.meter = meter

    def bind_metrics(self, registry, prefix: str) -> None:
        self.counters.bind(registry, prefix)

    def op_lock(self, uuid: int) -> bool:
        """Extent-lock round trip (Lustre OST DLM)."""
        return True

    def op_put_block(self, uuid: int, blk_num: int, data: bytes) -> None:
        self.counters.inc("blocks.put")
        self.counters.inc("bytes.in", len(data))
        self.store.put(block_key(uuid, blk_num), data)

    def op_get_block(self, uuid: int, blk_num: int) -> bytes:
        self.counters.inc("blocks.get")
        return self.store.get(block_key(uuid, blk_num)) or b""

    def op_delete_file(self, uuid: int) -> int:
        """Drop every block of a file; returns the number removed."""
        doomed = [k for k, _ in self.store.prefix_scan(uuid.to_bytes(8, "big"))]
        for k in doomed:
            self.store.delete(k)
        self.counters.inc("blocks.deleted", len(doomed))
        return len(doomed)

    def num_blocks(self) -> int:
        return len(self.store)


class BlockPlacement:
    """Maps (uuid, blk_num) to object servers via consistent hashing.

    ``replicas`` > 1 turns on R-way replication (the paper's evaluation
    runs without replicas, §4.3; this is the production knob it forgoes):
    writes fan out to all replicas, reads go to the primary and fall back
    down the replica list.
    """

    def __init__(self, server_names: list[str], replicas: int = 1):
        if replicas < 1:
            raise ValueError("need at least one replica")
        self.ring = ConsistentHashRing(nodes=server_names)
        self.names = list(server_names)
        self.replicas = min(replicas, len(server_names))

    def locate(self, uuid: int, blk_num: int) -> str:
        """Primary replica for a block."""
        return self.ring.lookup(block_key(uuid, blk_num))

    def replicas_for(self, uuid: int, blk_num: int) -> list[str]:
        """Replica set, primary first."""
        return self.ring.lookup_n(block_key(uuid, blk_num), self.replicas)
