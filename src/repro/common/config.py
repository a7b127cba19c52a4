"""Configuration dataclasses shared by LocoFS and the baselines."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CacheConfig:
    """Client directory-metadata cache settings (paper §3.2.2)."""

    enabled: bool = True
    lease_seconds: float = 30.0
    capacity: int = 65536  # d-inodes; 256 B each => ~16 MB, "limited memory"


@dataclass
class BatchConfig:
    """Client write-behind batching (the LocoFS-B variant).

    When enabled, the client defers small metadata writes (file creates)
    into per-FMS queues and ships each queue as one batched RPC.  A queue
    is flushed when it reaches ``max_ops`` operations or ``max_bytes`` of
    payload, when a pending entry is older than ``max_age_us`` of virtual
    time, or whenever a read needs one of its keys (read-your-writes).
    """

    enabled: bool = False
    #: flush after this many deferred ops per server (the batch budget)
    max_ops: int = 8
    #: flush once the deferred request payload reaches this many bytes
    max_bytes: int = 4096
    #: flush any queue whose oldest entry exceeds this virtual age
    max_age_us: float = 2000.0
    #: defer *all* small metadata updates (mkdir/unlink/setattr/chmod/
    #: rename-file), not just creates, with dependency tracking between
    #: queued entries (the LocoFS-A variant; DESIGN §11)
    all_ops: bool = False
    #: client-side directory-uuid pool refill size for deferred mkdir
    #: (one ``reserve_uuids`` RPC to the DMS buys this many mkdirs)
    uuid_reserve: int = 64

    def __post_init__(self) -> None:
        if self.max_ops < 1:
            raise ValueError("batch needs max_ops >= 1")
        if self.max_bytes < 1:
            raise ValueError("batch needs max_bytes >= 1")
        if self.max_age_us <= 0:
            raise ValueError("batch needs a positive max_age_us")
        if self.uuid_reserve < 1:
            raise ValueError("batch needs uuid_reserve >= 1")


@dataclass
class LookupCacheConfig:
    """Shared hot-entry lookup-cache tier (the LocoFS-A "switch" node).

    Fletch-style: a single cache node on the network path between the
    clients and the metadata tier, reachable in
    :attr:`~repro.sim.costmodel.CostModel.switch_rtt_us` instead of a full
    network RTT.  It caches file-attribute lookups (getattr/open/access)
    and DMS path lookups; writers invalidate entries as part of their
    write-behind flushes (DESIGN §11).
    """

    enabled: bool = False
    #: cached entries (files + paths) before FIFO eviction
    capacity: int = 65536

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("lookup cache needs capacity >= 1")


@dataclass
class DirectoryConfig:
    """Shape of the LocoFS directory tier (beyond the paper).

    ``partitions == 0`` is the paper's single DMS with its server-side
    ancestor ACL walk (§3.1) — *not* a one-partition special case: any
    ``partitions >= 1`` hash-partitions the d-inodes by full path and
    moves the walk to the client (:mod:`repro.core.multidms`).
    ``replication > 1`` makes every partition a quorum-replicated group of
    that many replicas (:mod:`repro.core.repldms`).
    """

    partitions: int = 0
    replication: int = 1

    def __post_init__(self) -> None:
        if self.partitions < 0:
            raise ValueError("directory.partitions must be >= 0")
        if self.replication < 1:
            raise ValueError("directory.replication must be >= 1")


@dataclass
class ClusterConfig:
    """Shape of the simulated deployment.

    ``num_metadata_servers`` counts FMS servers for LocoFS (the directory
    tier is separate: the paper's single DMS unless ``directory`` says
    otherwise) and generic MDS servers for the baselines.
    """

    num_metadata_servers: int = 1
    num_object_servers: int = 4
    #: R-way data replication (the paper evaluates with 1, i.e. none)
    data_replicas: int = 1
    block_size: int = 4096
    cache: CacheConfig = field(default_factory=CacheConfig)
    #: client write-behind batching (locofs-b); off for the paper systems
    batch: BatchConfig = field(default_factory=BatchConfig)
    #: shared hot-entry lookup-cache node (locofs-a); off by default
    lookup_cache: LookupCacheConfig = field(default_factory=LookupCacheConfig)
    #: directory-tier shape: single DMS (paper) / partitioned / replicated
    directory: DirectoryConfig = field(default_factory=DirectoryConfig)
    # LocoFS-specific toggles used by the ablation experiments:
    decoupled_file_metadata: bool = True  # Fig. 11: LocoFS-DF vs LocoFS-CF
    dms_backend: str = "btree"  # "btree" (paper default) or "hash" (Fig. 14)
    #: Close a gap in the paper's design: directories live in the DMS
    #: keyspace and files in the FMS keyspace, so nothing stops a file and
    #: a directory from sharing a name.  Strict mode adds one cross-service
    #: existence probe to create (DMS) and mkdir (FMS) — correct POSIX
    #: semantics at the cost of an extra round trip, so it is off by
    #: default to keep the paper's 1-RPC create/mkdir paths (see DESIGN.md).
    strict_collisions: bool = False

    def __post_init__(self) -> None:
        if self.num_metadata_servers < 1:
            raise ValueError("need at least one metadata server")
        if self.num_object_servers < 1:
            raise ValueError("need at least one object server")
        if self.block_size < 512:
            raise ValueError("block size too small")
        if self.data_replicas < 1:
            raise ValueError("need at least one data replica")
