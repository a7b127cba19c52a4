"""System registry: build any evaluated system by name.

Names follow the paper's figure legends:

* ``locofs-c`` / ``locofs-nc`` — LocoFS with/without the client directory
  cache (§4 legend: LocoFS-C / LocoFS-NC)
* ``locofs-cf`` / ``locofs-df`` — coupled vs decoupled file metadata
  (Fig. 11; ``locofs-c`` is ``locofs-df``)
* ``locofs-b`` — write-behind batched metadata RPCs on top of
  ``locofs-c`` (beyond the paper; Fig. 15)
* ``locofs-a`` — dependency-aware asynchronous metadata updates (all
  small updates defer, not just creates) plus the shared hot-entry
  lookup-cache tier (beyond the paper; Fig. 17)
* ``locofs-r`` — quorum-replicated, partitioned directory service with
  client-driven leader failover (beyond the paper; Fig. 19)
* ``lustre-d1`` / ``lustre-d2`` — Lustre DNE1 / DNE2
* ``cephfs``, ``gluster``, ``indexfs``, ``rawkv``
"""

from __future__ import annotations

from repro.baselines import (
    CephFSSystem,
    GlusterSystem,
    IndexFSSystem,
    LustreSystem,
    RawKVSystem,
)
from repro.common.config import (
    BatchConfig,
    CacheConfig,
    ClusterConfig,
    LookupCacheConfig,
)
from repro.core.fs import LocoFS
from repro.sim.costmodel import CostModel

SYSTEM_NAMES = [
    "locofs-c",
    "locofs-nc",
    "locofs-cf",
    "locofs-df",
    "locofs-b",
    "locofs-a",
    "locofs-r",
    "cephfs",
    "gluster",
    "lustre-d1",
    "lustre-d2",
    "indexfs",
    "rawkv",
]

#: display labels used by the report tables (paper legend spelling)
LABELS = {
    "locofs-c": "LocoFS-C",
    "locofs-nc": "LocoFS-NC",
    "locofs-cf": "LocoFS-CF",
    "locofs-df": "LocoFS-DF",
    "locofs-b": "LocoFS-B",
    "locofs-a": "LocoFS-A",
    "locofs-r": "LocoFS-R",
    "cephfs": "CephFS",
    "gluster": "Gluster",
    "lustre-d1": "Lustre D1",
    "lustre-d2": "Lustre D2",
    "indexfs": "IndexFS",
    "rawkv": "KyotoCabinet",
}


#: ``ClusterConfig`` overrides of the rows that are plain :class:`LocoFS`
#: deployments (callables: the config dataclasses are mutable, so every
#: deployment gets fresh ones)
_LOCOFS_CONFIGS = {
    "locofs-c": dict,
    "locofs-df": dict,
    # write-behind batching on top of locofs-c (beyond-the-paper variant)
    "locofs-b": lambda: {"batch": BatchConfig(enabled=True)},
    # dependency-aware async updates + lookup-cache tier (Fig. 17)
    "locofs-a": lambda: {
        "batch": BatchConfig(enabled=True, all_ops=True),
        "lookup_cache": LookupCacheConfig(enabled=True),
    },
    "locofs-nc": lambda: {"cache": CacheConfig(enabled=False)},
    "locofs-cf": lambda: {"decoupled_file_metadata": False},
}


def make_system(
    name: str,
    num_servers: int = 1,
    cost: CostModel | None = None,
    engine_kind: str = "direct",
    data_dir: str | None = None,
):
    """Instantiate a deployment by legend name.

    ``data_dir`` makes every metadata server of a LocoFS variant
    write-ahead-log its KV store there (crash recovery); the baselines
    have no durable state to log and ignore it.
    """
    cost = cost or CostModel()
    overrides = _LOCOFS_CONFIGS.get(name)
    if overrides is not None:
        return LocoFS(
            ClusterConfig(num_metadata_servers=num_servers, **overrides()),
            cost=cost, engine_kind=engine_kind, data_dir=data_dir,
        )
    if name == "locofs-r":
        # quorum-replicated partitioned DMS (beyond the paper; Fig. 19)
        from repro.core.repldms import ReplicatedLocoFS

        return ReplicatedLocoFS(num_metadata_servers=num_servers, cost=cost,
                                engine_kind=engine_kind, data_dir=data_dir)
    if name == "cephfs":
        return CephFSSystem(num_metadata_servers=num_servers, cost=cost,
                            engine_kind=engine_kind)
    if name == "gluster":
        return GlusterSystem(num_metadata_servers=num_servers, cost=cost,
                             engine_kind=engine_kind)
    if name == "lustre-d1":
        return LustreSystem(num_metadata_servers=num_servers, dne=1, cost=cost,
                            engine_kind=engine_kind)
    if name == "lustre-d2":
        return LustreSystem(num_metadata_servers=num_servers, dne=2, cost=cost,
                            engine_kind=engine_kind)
    if name == "indexfs":
        return IndexFSSystem(num_metadata_servers=num_servers, cost=cost,
                             engine_kind=engine_kind)
    if name == "rawkv":
        return RawKVSystem(cost=cost, engine_kind=engine_kind)
    raise ValueError(f"unknown system {name!r}; choose from {SYSTEM_NAMES}")
