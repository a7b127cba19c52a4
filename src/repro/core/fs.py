"""LocoFS deployment builder: build a cluster and hand out clients.

This is the public entry point of the library::

    from repro import LocoFS, ClusterConfig

    fs = LocoFS(ClusterConfig(num_metadata_servers=4))
    client = fs.client()
    client.mkdir("/data")
    client.create("/data/results.csv")

The deployment shape follows the paper (§3.1): a directory tier, N FMS
servers, M object servers.  ``engine_kind`` selects the timing plane:
``"direct"`` (synchronous, virtual clock — functional use and latency
experiments) or ``"event"`` (discrete-event queueing — throughput
experiments).

:class:`LocoFS` is the only class that builds a deployment.  Everything
that varies is read from :class:`~repro.common.config.ClusterConfig` on
two independent axes, and :meth:`LocoFS.client` hands out the class
composed from them — the axes cooperate through ``super()``, so no class
is written per combination:

=================  =========================================  =======================
axis               ``ClusterConfig``                          client class
=================  =========================================  =======================
directory routing  ``directory.partitions == 0``              — (the paper's one DMS)
..                 ``partitions >= 1`` (``dms{i}``)           ``MultiDMSClient``
..                 and ``replication > 1`` (``rdms{p}.{r}``)  ``ReplDirClient``
update policy      ``batch.enabled`` off                      ``LocoClient``
..                 ``batch.enabled``                          ``BatchingLocoClient``
..                 and ``batch.all_ops``                      ``AsyncLocoClient``
=================  =========================================  =======================

Combinations the servers cannot serve (see :func:`_check`) are rejected
at build time, never silently ignored.
"""

from __future__ import annotations

import os

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


def _check(config: ClusterConfig) -> None:
    """Reject field combinations that would build a deployment other than
    the one the config describes."""
    batch, directory = config.batch, config.directory
    if batch.all_ops and not batch.enabled:
        raise ValueError("batch.all_ops needs batch.enabled")
    if config.lookup_cache.enabled and not batch.all_ops:
        raise ValueError("lookup_cache.enabled needs batch.all_ops: only the "
                         "async client talks to the lookup-cache node")
    if batch.all_ops and directory.partitions > 0:
        raise ValueError("batch.all_ops needs directory.partitions == 0: only "
                         "the single DMS serves apply_batch / reserve_uuids")
    if directory.replication > 1 and directory.partitions == 0:
        raise ValueError("directory.replication > 1 needs directory.partitions "
                         ">= 1: the single DMS is not replicated")


class LocoFS:
    """A LocoFS deployment (metadata cluster + object store)."""

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
        self.config = config = config or ClusterConfig()
        _check(config)
        self.cost = cost or CostModel()
        self.cluster = Cluster(self.cost)
        self.data_dir = data_dir
        if data_dir is not None:
            os.makedirs(data_dir, exist_ok=True)

        def wal(name: str) -> str | None:
            return None if data_dir is None else os.path.join(data_dir, f"{name}.wal")

        # -- directory tier -------------------------------------------------------
        # multidms / repldms are imported in the branch that builds them:
        # at module top they cost every deployment ~0.7 MiB of peak RSS
        parts, repl = config.directory.partitions, config.directory.replication
        #: the single DMS (``None`` when the tier is partitioned)
        self.dms: DirectoryMetadataServer | None = None
        #: every directory server by node name
        self.dms_servers: dict[str, DirectoryMetadataServer] = {}
        #: routing targets of a partitioned tier: shard or partition names
        self.dms_names: list[str] = []
        #: partition name -> ordered replica names (replica 0 = first leader)
        self.partitions: dict[str, list[str]] = {}
        routing: type | None = None
        routing_kwargs: dict = {}
        if parts == 0:
            self.dms = self.dms_servers["dms"] = DirectoryMetadataServer(
                backend=config.dms_backend, track_touches=track_touches,
                wal_path=wal("dms"))
        elif repl == 1:
            from .multidms import DirectoryShardServer, MultiDMSClient

            # the root lives on the shard the client ring maps "/" to: 0
            for i in range(parts):
                self.dms_servers[f"dms{i}"] = DirectoryShardServer(
                    i, backend=config.dms_backend, has_root=(i == 0),
                    wal_path=wal(f"dms{i}"))
            self.dms_names = list(self.dms_servers)
            routing = MultiDMSClient
            routing_kwargs = {"dms_names": self.dms_names}
        else:
            from .repldms import ReplDirClient, ReplicatedDirShard

            for p in range(parts):
                names = [f"rdms{p}.{r}" for r in range(repl)]
                self.partitions[f"rdms{p}"] = names
                for r, name in enumerate(names):
                    # globally-unique sid per replica (leaders allocate uuids
                    # from disjoint id spaces); stays below the FMS range
                    self.dms_servers[name] = ReplicatedDirShard(
                        p * repl + r + 1, my_name=name, replica_names=names,
                        backend=config.dms_backend, has_root=(p == 0),
                        wal_path=wal(name), start_leader=(r == 0))
            self.dms_names = list(self.partitions)
            routing = ReplDirClient
            routing_kwargs = {"dms_names": self.dms_names,
                              "partitions": self.partitions}
        for name, server in self.dms_servers.items():
            self.cluster.add(name, server)

        # -- file tier, object store, lookup cache, engine ------------------------
        # FMS sids: 1 + i beside the single DMS (sid 0), 100 + i beside
        # shards (whose sids count up from 0) — the uuids they mint are
        # pinned by both determinism goldens
        first_sid = 1 if parts == 0 else 100
        self.fms: list[FileMetadataServer] = []
        self.fms_names: list[str] = []
        for i in range(config.num_metadata_servers):
            server = FileMetadataServer(
                sid=first_sid + i,
                decoupled=config.decoupled_file_metadata,
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
        for i in range(config.num_object_servers):
            server = ObjectStoreServer(sid=i)
            name = f"obj{i}"
            self.cluster.add(name, server)
            self.object_servers.append(server)
            obj_names.append(name)
        self.placement = BlockPlacement(obj_names, replicas=config.data_replicas)

        self.lookup_cache: LookupCacheServer | None = None
        cache_node = "cache0" if config.lookup_cache.enabled else None
        if cache_node is not None:
            self.lookup_cache = LookupCacheServer(config.lookup_cache.capacity)
            self.cluster.add(cache_node, self.lookup_cache)

        self.engine = make_engine(engine_kind, self.cluster, self.cost)
        if cache_node is not None:
            # the shared hot-entry cache node (LocoFS-A) lives on the
            # network path, so the engine treats it as a switch node —
            # near-zero RTT and no connection displacement
            self.engine.register_switch_node(cache_node, self.cost.switch_rtt_us)

        # -- client class: update policy x directory routing ----------------------
        policy_kwargs: dict = {}
        if config.batch.all_ops:
            policy = AsyncLocoClient
            policy_kwargs = {"batch": config.batch, "lookup_cache_node": cache_node}
        elif config.batch.enabled:
            policy = BatchingLocoClient
            policy_kwargs = {"batch": config.batch}
        else:
            policy = LocoClient
        if routing is None:
            self._client_class = policy
        elif policy is LocoClient:
            self._client_class = routing
        else:
            self._client_class = type(f"{policy.__name__}Over{routing.__name__}",
                                      (policy, routing), {})
        self._client_kwargs = dict(
            fms_names=self.fms_names,
            placement=self.placement,
            cache_enabled=config.cache.enabled,
            lease_seconds=config.cache.lease_seconds,
            cache_capacity=config.cache.capacity,
            block_size=config.block_size,
            strict_collisions=config.strict_collisions,
            **policy_kwargs, **routing_kwargs,
        )
        self._next_client_id = 0

    def client(self, cred: Credentials = ROOT_CRED, engine=None) -> LocoClient:
        """A new logical client (with its own directory cache) of the
        class the config composes — see the module docstring's tables."""
        kwargs = self._client_kwargs
        if self.partitions:
            # replicated sessions are keyed by a per-deployment client id
            kwargs = dict(kwargs, client_id=self._next_client_id)
            self._next_client_id += 1
        return self._client_class(engine if engine is not None else self.engine,
                                  cred=cred, **kwargs)

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

    def partition_leader(self, partition: str) -> DirectoryMetadataServer:
        """The partition's current leader, else its freshest-log replica."""
        servers = [self.dms_servers[n] for n in self.partitions[partition]]
        for s in servers:
            if s.role == "leader":
                return s
        return max(servers, key=lambda s: (s.last_term, s.last_index))

    def total_directories(self) -> int:
        """Directories in the namespace: one count per partition (its
        leader's) when the tier is replicated, every server's otherwise."""
        servers = ([self.partition_leader(p) for p in self.partitions]
                   or self.dms_servers.values())
        return sum(s.num_directories() for s in servers)

    def close(self) -> None:
        """Flush and close every server's store (WAL-backed deployments)."""
        for s in [*self.dms_servers.values(), *self.fms, *self.object_servers]:
            s.store.close()
