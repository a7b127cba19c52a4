"""Deployment facades for the baseline systems.

Each facade builds a cluster of :class:`TreePartitionServer` partitions
plus object servers, wires the right placement policy, client caching
behaviour, backend store and calibrated software overheads, and hands out
clients — mirroring :class:`repro.core.fs.LocoFS` so the harness can treat
all six systems identically.

System profiles (see DESIGN.md §2 and costmodel.py for calibration
provenance):

=========  ==========  =========  ========  ==============================
system     placement   store      journal   client cache
=========  ==========  =========  ========  ==============================
IndexFS    parent-hash LSM        no        dir leases (stateless caching)
CephFS     subtree     hash       yes       dirs + file attrs (caps)
Lustre D1  subtree     hash       no        dir leases (kernel dcache)
Lustre D2  striped     hash       no        dir leases
Gluster    DHT bricks  hash       no        dir leases (md-cache)
=========  ==========  =========  ========  ==============================
"""

from __future__ import annotations

from repro.common.types import Credentials, ROOT_CRED
from repro.core.objectstore import BlockPlacement, ObjectStoreServer
from repro.sim.cluster import Cluster
from repro.sim.costmodel import CostModel
from repro.sim.engine import make_engine

from .placement import (
    GlusterPlacement,
    ParentHashPlacement,
    PlacementBase,
    StripedPlacement,
    SubtreePlacement,
)
from .treeclient import GlusterClient, TreeFSClient
from .treeserver import TreePartitionServer


class BaselineFS:
    """Common scaffolding for the four baseline file systems."""

    name = "baseline"
    placement_cls: type[PlacementBase] = SubtreePlacement
    client_cls: type[TreeFSClient] = TreeFSClient
    store_kind = "hash"
    overhead_read_us = 0.0
    overhead_write_us = 0.0
    cache_file_attrs = False
    #: Lustre-style lock-enqueue RPC before each namespace mutation
    lock_rpc = False
    #: close-to-open/stateless stat revalidation (vs Ceph-style caps)
    revalidate_stats = True
    #: Gluster replicates the root on every brick
    root_everywhere = False

    def __init__(
        self,
        num_metadata_servers: int = 1,
        num_object_servers: int = 4,
        cost: CostModel | None = None,
        engine_kind: str = "direct",
        block_size: int = 4096,
        lease_seconds: float = 30.0,
    ):
        self.cost = cost or CostModel()
        self.cluster = Cluster(self.cost)
        self.block_size = block_size
        self.lease_seconds = lease_seconds
        self.server_names = [f"mds{i}" for i in range(num_metadata_servers)]
        self.placement = self.placement_cls(self.server_names)
        self.servers: list[TreePartitionServer] = []
        root_holders = (
            set(self.server_names)
            if self.root_everywhere
            else {self.placement.inode_server("/")}
        )
        for i, name in enumerate(self.server_names):
            server = TreePartitionServer(
                sid=i + 1,
                store_kind=self.store_kind,
                overhead_read_us=self.overhead_read_us,
                overhead_write_us=self.overhead_write_us,
                cost=self.cost,
                has_root=name in root_holders,
            )
            self.cluster.add(name, server)
            self.servers.append(server)
        obj_names = []
        self.object_servers: list[ObjectStoreServer] = []
        for i in range(num_object_servers):
            server = ObjectStoreServer(sid=i)
            self.cluster.add(f"obj{i}", server)
            self.object_servers.append(server)
            obj_names.append(f"obj{i}")
        self.block_placement = BlockPlacement(obj_names)
        self.engine = make_engine(engine_kind, self.cluster, self.cost)

    def client(self, cred: Credentials = ROOT_CRED, engine=None) -> TreeFSClient:
        return self.client_cls(
            engine if engine is not None else self.engine,
            placement=self.placement,
            block_placement=self.block_placement,
            cred=cred,
            lease_seconds=self.lease_seconds,
            cache_file_attrs=self.cache_file_attrs,
            block_size=self.block_size,
            lock_rpc=self.lock_rpc,
            revalidate_stats=self.revalidate_stats,
        )

    def close(self) -> None:
        for s in self.servers:
            s.close()


class IndexFSSystem(BaselineFS):
    """IndexFS-like: parent-hash partitioning over LSM stores, whole-inode
    values, lease-based stateless client caching (Ren et al., SC'14)."""

    name = "indexfs"
    placement_cls = ParentHashPlacement
    store_kind = "lsm"

    def __init__(self, *args, cost: CostModel | None = None, **kwargs):
        cost = cost or CostModel()
        self.overhead_read_us = cost.indexfs_overhead_us * 0.4
        self.overhead_write_us = cost.indexfs_overhead_us
        super().__init__(*args, cost=cost, **kwargs)


class CephFSSystem(BaselineFS):
    """CephFS-like: subtree partitioning, journaling MDS, rich client cache."""

    name = "cephfs"
    placement_cls = SubtreePlacement
    cache_file_attrs = True  # capabilities: clients cache f-inodes too
    revalidate_stats = False  # caps make cached attrs authoritative

    def __init__(self, *args, cost: CostModel | None = None, **kwargs):
        cost = cost or CostModel()
        self.overhead_read_us = cost.cephfs_mds_overhead_us * 0.35
        self.overhead_write_us = cost.cephfs_mds_overhead_us
        super().__init__(*args, cost=cost, **kwargs)


class LustreSystem(BaselineFS):
    """Lustre-like MDS cluster; DNE1 (manual subtree split) or DNE2 (striped)."""

    name = "lustre-d1"

    def __init__(self, *args, dne: int = 1, cost: CostModel | None = None, **kwargs):
        if dne not in (1, 2):
            raise ValueError("dne must be 1 or 2")
        cost = cost or CostModel()
        self.dne = dne
        self.lock_rpc = True  # LDLM enqueue round trip per mutation
        self.placement_cls = SubtreePlacement if dne == 1 else StripedPlacement
        self.name = f"lustre-d{dne}"
        self.overhead_read_us = cost.lustre_mds_overhead_us * 0.5
        self.overhead_write_us = cost.lustre_mds_overhead_us
        super().__init__(*args, cost=cost, **kwargs)


class GlusterSystem(BaselineFS):
    """Gluster-like: no MDS — bricks hold hashed metadata, dirs replicated."""

    name = "gluster"
    placement_cls = GlusterPlacement
    client_cls = GlusterClient
    root_everywhere = True

    def __init__(self, *args, cost: CostModel | None = None, **kwargs):
        cost = cost or CostModel()
        self.overhead_read_us = cost.gluster_brick_overhead_us * 0.8
        self.overhead_write_us = cost.gluster_brick_overhead_us
        super().__init__(*args, cost=cost, **kwargs)
