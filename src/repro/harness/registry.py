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
    DirectoryConfig,
    LookupCacheConfig,
)
from repro.core.fs import LocoFS
from repro.sim.costmodel import CostModel

#: every system, in report order: legend name -> display label used by
#: the report tables (paper legend spelling)
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

SYSTEM_NAMES = list(LABELS)
#: the rows that are file systems: ``rawkv`` is a bare KV store with no
#: namespace operations, so the verbs that drive mkdir/create refuse it
FS_SYSTEM_NAMES = [n for n in SYSTEM_NAMES if n != "rawkv"]


#: ``ClusterConfig`` overrides of every LocoFS row — a row is configuration,
#: never a class (callables: the config dataclasses are mutable, so every
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
    # quorum-replicated partitioned DMS (beyond the paper; Fig. 19); the
    # client cache is off so availability runs measure what replication
    # provides, not what leases mask (compare locofs-c)
    "locofs-r": lambda: {
        "directory": DirectoryConfig(partitions=2, replication=3),
        "cache": CacheConfig(enabled=False),
    },
}

#: the baselines that scale with ``num_servers``: (class, extra arguments)
_BASELINES = {
    "cephfs": (CephFSSystem, {}),
    "gluster": (GlusterSystem, {}),
    "lustre-d1": (LustreSystem, {"dne": 1}),
    "lustre-d2": (LustreSystem, {"dne": 2}),
    "indexfs": (IndexFSSystem, {}),
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
    if name in _LOCOFS_CONFIGS:
        return LocoFS(
            ClusterConfig(num_metadata_servers=num_servers, **_LOCOFS_CONFIGS[name]()),
            cost=cost, engine_kind=engine_kind, data_dir=data_dir,
        )
    if name in _BASELINES:
        cls, extra = _BASELINES[name]
        return cls(num_metadata_servers=num_servers, cost=cost,
                   engine_kind=engine_kind, **extra)
    if name == "rawkv":  # one node by definition: takes no server count
        return RawKVSystem(cost=cost, engine_kind=engine_kind)
    raise ValueError(f"unknown system {name!r}; choose from {SYSTEM_NAMES}")
