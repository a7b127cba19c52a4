"""LocoFS facade: build a cluster and hand out clients.

This is the public entry point of the library::

    from repro import LocoFS, ClusterConfig

    fs = LocoFS(ClusterConfig(num_metadata_servers=4))
    client = fs.client()
    client.mkdir("/data")
    client.create("/data/results.csv")

The deployment shape follows the paper (§3.1): one DMS, N FMS servers,
M object servers.  ``engine_kind`` selects the timing plane:
``"direct"`` (synchronous, virtual clock — functional use and latency
experiments) or ``"event"`` (discrete-event queueing — throughput
experiments, via :meth:`event_engine`).
"""

from __future__ import annotations

from repro.common.config import ClusterConfig
from repro.common.types import Credentials, ROOT_CRED
from repro.sim.cluster import Cluster
from repro.sim.costmodel import CostModel
from repro.sim.engine import make_engine

from .asyncclient import AsyncLocoClient
from .client import BatchingLocoClient, LocoClient
from .dms import DirectoryMetadataServer
from .fms import FileMetadataServer
from .lookupcache import LookupCacheServer
from .objectstore import BlockPlacement, ObjectStoreServer


class LocoFS:
    """A LocoFS deployment (metadata cluster + object store)."""

    name = "locofs"

    def __init__(
        self,
        config: ClusterConfig | None = None,
        cost: CostModel | None = None,
        engine_kind: str = "direct",
        track_touches: bool = False,
        data_dir: str | None = None,
    ):
        """``data_dir``: when given, every metadata server write-ahead-logs
        its KV store under this directory; constructing another LocoFS with
        the same ``data_dir`` recovers the namespace (crash restart)."""
        import os

        self.config = config or ClusterConfig()
        self.cost = cost or CostModel()
        self.cluster = Cluster(self.cost)
        self.data_dir = data_dir
        if data_dir is not None:
            os.makedirs(data_dir, exist_ok=True)

        def wal(name: str) -> str | None:
            return None if data_dir is None else os.path.join(data_dir, f"{name}.wal")

        self.dms = DirectoryMetadataServer(
            backend=self.config.dms_backend, track_touches=track_touches,
            wal_path=wal("dms"),
        )
        self.cluster.add("dms", self.dms)

        self.fms: list[FileMetadataServer] = []
        self.fms_names: list[str] = []
        for i in range(self.config.num_metadata_servers):
            server = FileMetadataServer(
                sid=i + 1,
                decoupled=self.config.decoupled_file_metadata,
                cost=self.cost,
                track_touches=track_touches,
                wal_path=wal(f"fms{i}"),
            )
            name = f"fms{i}"
            self.cluster.add(name, server)
            self.fms.append(server)
            self.fms_names.append(name)

        self.object_servers: list[ObjectStoreServer] = []
        obj_names = []
        for i in range(self.config.num_object_servers):
            server = ObjectStoreServer(sid=i)
            name = f"obj{i}"
            self.cluster.add(name, server)
            self.object_servers.append(server)
            obj_names.append(name)
        self.placement = BlockPlacement(obj_names, replicas=self.config.data_replicas)

        self.lookup_cache: LookupCacheServer | None = None
        self.lookup_cache_name: str | None = None
        if self.config.lookup_cache.enabled:
            # the shared hot-entry cache node (LocoFS-A): lives on the
            # network path, so the engine treats it as a switch node —
            # near-zero RTT and no connection displacement
            self.lookup_cache = LookupCacheServer(self.config.lookup_cache.capacity)
            self.lookup_cache_name = "cache0"
            self.cluster.add(self.lookup_cache_name, self.lookup_cache)

        self.engine = make_engine(engine_kind, self.cluster, self.cost)
        if self.lookup_cache_name is not None:
            self.engine.register_switch_node(self.lookup_cache_name,
                                             self.cost.switch_rtt_us)

    def client(self, cred: Credentials = ROOT_CRED, engine=None) -> LocoClient:
        """A new logical client (with its own directory cache).

        With ``config.batch.enabled`` the client is a
        :class:`BatchingLocoClient` — the write-behind LocoFS-B variant.
        """
        kwargs = dict(
            fms_names=self.fms_names,
            placement=self.placement,
            cred=cred,
            cache_enabled=self.config.cache.enabled,
            lease_seconds=self.config.cache.lease_seconds,
            cache_capacity=self.config.cache.capacity,
            block_size=self.config.block_size,
            strict_collisions=self.config.strict_collisions,
        )
        engine = engine if engine is not None else self.engine
        if self.config.batch.enabled and self.config.batch.all_ops:
            return AsyncLocoClient(engine, batch=self.config.batch,
                                   lookup_cache_node=self.lookup_cache_name,
                                   **kwargs)
        if self.config.batch.enabled:
            return BatchingLocoClient(engine, batch=self.config.batch, **kwargs)
        return LocoClient(engine, **kwargs)

    # -- observability --------------------------------------------------------------
    def attach_observability(self, tracer=None, metrics=None) -> None:
        """Opt this deployment into virtual-time tracing and/or metrics.

        Convenience passthrough to the engine (see :mod:`repro.obs`)::

            from repro.obs import Tracer
            fs = LocoFS(); fs.attach_observability(tracer := Tracer())
        """
        self.engine.attach_observability(tracer=tracer, metrics=metrics)

    # -- introspection -------------------------------------------------------------
    def total_files(self) -> int:
        return sum(s.num_files() for s in self.fms)

    def total_files_fast(self) -> int:
        """Charge-free total via the FMS-maintained counters (O(servers))."""
        return sum(s.num_files_fast() for s in self.fms)

    def total_directories(self) -> int:
        return self.dms.num_directories()

    def close(self) -> None:
        """Flush and close every server's store (WAL-backed deployments)."""
        self.dms.store.close()
        for s in self.fms:
            s.store.close()
        for s in self.object_servers:
            s.store.close()
