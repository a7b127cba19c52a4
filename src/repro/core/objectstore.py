"""Object store for file data (paper §3.1, §3.3.2).

LocoFS organizes file data into objects the way Ceph does; what matters
for the reproduction is the *addressing*: a data block is identified by
``uuid + blk_num`` and located by consistent hashing, so no per-file block
index exists anywhere — that is the "indexing metadata removal" that
shrinks the file inode (§3.3.2), and it is why neither f-rename nor
d-rename ever relocates data.

It is also why deleting data needs no search: a file of ``size`` bytes
holds at most blocks ``0 … ⌈size / bsize⌉ − 1``, because no block lies
past its file's size (a shrinking truncate drops the whole blocks past
the new size and trims the one it ends inside; fsck's I11).  Unlink and
truncate name those keys (:meth:`BlockPlacement.cut`), so they cost the
file's own blocks, not the object tier's.  A span longer than
:data:`NAMED_MAX` blocks (a sparse file, mostly) is not named block by
block: every server gets it as a ``range`` and drops what it holds of
it, probing each number or scanning its store, whichever touches fewer
keys.  So a cut costs at most :data:`NAMED_MAX` probes per file or one
scan of each store, however large the file's logical size.
"""

from __future__ import annotations

from repro.common.stats import Counters
from repro.kv import HashStore
from repro.kv.meter import Meter
from repro.metadata.chash import ConsistentHashRing
from repro.sim.rpc import Batch, Parallel, Rpc

#: the longest span of one file's blocks :meth:`BlockPlacement.cut` names
#: block by block (16 MiB of 4 KiB blocks); a longer one goes to every
#: server as a ``range``
NAMED_MAX = 4096


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

    def op_delete_blocks(self, uuid: int, blks: list[int] | range,
                         trim: tuple[int, int] | None = None) -> int:
        """Drop the named blocks of one file, and with ``trim = (blk,
        nbytes)`` cut one more block to its first ``nbytes`` bytes (the
        block a shrinking truncate ends inside).  Every key is computed,
        so the work is one point op per named block — except for a
        ``range`` longer than the store, which a scan of the store
        covers with fewer keys touched.  Returns the number of blocks
        removed."""
        store = self.store
        prefix = uuid.to_bytes(8, "big")  # block_key's, once per file
        if blks.__class__ is range and len(blks) > len(store):
            blks = [blk for blk in (int.from_bytes(k[8:], "big")
                                    for k, _ in store.prefix_scan(prefix))
                    if blk in blks]
        n = 0
        for blk in blks:
            n += store.delete(prefix + blk.to_bytes(8, "big"))
        if trim is not None:
            key = prefix + trim[0].to_bytes(8, "big")
            data = store.get(key)
            if data is not None and len(data) > trim[1]:
                store.put(key, data[:trim[1]])
        self.counters.inc("blocks.deleted", n)
        return n

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

    def cut(self, files) -> Parallel:
        """The requests that cut files down to smaller sizes, to yield.

        ``files`` holds ``(extent, new_size)`` pairs: ``extent`` is a
        removal or truncate reply, ``{"uuid", "bsize", "size"}``, and
        ``new_size < size``.  The blocks ``size`` covers from
        ``⌈new_size / bsize⌉`` on are dropped, and the block ``new_size``
        ends inside is trimmed to it.  An unlink is a cut to 0.  Every
        replica of each block is named, and each owning server gets one
        request: a lone ``delete_blocks`` when it holds blocks of one
        file, a :class:`Batch` when it holds several files' blocks.  A
        span of more than :data:`NAMED_MAX` blocks goes to every server
        as one ``range``.  The requests are one :class:`Parallel`
        fan-out, like every data-path round (object servers are reached
        over the data connections, so a one-server cut pays no metadata
        connection switch either).
        """
        #: (server, uuid) -> [blocks to drop (a list or a range),
        #: (blk, nbytes) trim]
        named: dict[tuple[str, int], list] = {}
        for extent, new_size in files:
            uuid, bsize, size = extent["uuid"], extent["bsize"], extent["size"]
            first = new_size // bsize
            tail = new_size - first * bsize
            if tail:
                for server in self.replicas_for(uuid, first):
                    named[server, uuid] = [[], (first, tail)]
                first += 1
            end = (size + bsize - 1) // bsize
            if end - first > NAMED_MAX:
                span = range(first, end)
                for server in self.names:
                    req = named.get((server, uuid))
                    if req is None:
                        named[server, uuid] = [span, None]
                    else:
                        req[0] = span
                continue
            for blk in range(first, end):
                for server in self.replicas_for(uuid, blk):
                    req = named.get((server, uuid))
                    if req is None:
                        named[server, uuid] = [[blk], None]
                    else:
                        req[0].append(blk)
        per: dict[str, list[Rpc]] = {}
        for (server, uuid), (blks, trim) in named.items():
            rpc = Rpc(server, "delete_blocks", (uuid, blks, trim))
            rpcs = per.get(server)
            if rpcs is None:
                per[server] = [rpc]
            else:
                rpcs.append(rpc)
        return Parallel([rpcs[0] if len(rpcs) == 1 else Batch(server, rpcs)
                         for server, rpcs in per.items()])
