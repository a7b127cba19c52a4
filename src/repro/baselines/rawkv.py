"""Raw key-value server: the performance upper bound of Figs. 1 and 9.

A single-purpose server exposing get/put over one Kyoto-Cabinet-style
B+-tree store.  Each client operation is exactly one RPC and one KV
operation — the ceiling any KV-backed metadata service could reach, which
the paper uses to quantify the "performance gap".
"""

from __future__ import annotations

from repro.kv import BTreeStore
from repro.kv.meter import Meter
from repro.sim.cluster import Cluster
from repro.sim.costmodel import CostModel
from repro.sim.engine import make_engine
from repro.sim.rpc import Rpc


class RawKVServer:
    """One KV store behind an RPC surface."""

    def __init__(self) -> None:
        self.store = BTreeStore()
        self.meter = self.store.meter

    def attach_meter(self, meter: Meter) -> None:
        self.store.meter = meter
        self.meter = meter

    def op_put(self, key: bytes, value: bytes) -> None:
        self.store.put(key, value)

    def op_get(self, key: bytes) -> bytes | None:
        return self.store.get(key)


class RawKVClient:
    """Client issuing one RPC per KV op (used via the engines)."""

    def __init__(self, engine, server: str = "kv0"):
        self._engine = engine
        self.server = server

    def _g_put(self, key: bytes, value: bytes):
        yield Rpc(self.server, "put", (key, value))

    def _g_get(self, key: bytes):
        return (yield Rpc(self.server, "get", (key,)))

    def op_generator(self, op: str, *args):
        return getattr(self, "_g_" + op)(*args)

    def put(self, key: bytes, value: bytes) -> None:
        self._engine.run(self._g_put(key, value))

    def get(self, key: bytes) -> bytes | None:
        return self._engine.run(self._g_get(key))


class RawKVSystem:
    """Single-node raw KV deployment (the 'Kyoto Cabinet' line)."""

    name = "rawkv"

    def __init__(self, cost: CostModel | None = None, engine_kind: str = "direct"):
        self.cost = cost or CostModel()
        self.cluster = Cluster(self.cost)
        self.server = RawKVServer()
        self.cluster.add("kv0", self.server)
        self.engine = make_engine(engine_kind, self.cluster, self.cost)

    def client(self) -> RawKVClient:
        return RawKVClient(self.engine)

    def close(self) -> None:
        """Nothing to flush: the store keeps no durable state."""
