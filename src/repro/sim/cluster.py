"""Server nodes and the cluster registry.

A :class:`ServerNode` wraps a handler object (DMS, FMS, MDS, object
server...) whose public ``op_<name>`` methods implement the RPC surface.
Each node owns a :class:`~repro.kv.meter.Meter`; the engines settle its
ledger as a dispatch ends: its total after minus before is the request's
modeled service time.  Handlers share their node's meter with their KV
stores, so a handler's service time is precisely the modeled cost of the
KV work it actually performed (plus explicit charges such as serialization).
"""

from __future__ import annotations

from itertools import repeat

from repro.kv.meter import Meter

from .costmodel import CostModel, KVCostPolicy


#: handler class -> (RPC method names, ``op_<name>`` attribute names):
#: ``dir()`` walks the whole MRO and sorts, so it runs once per class,
#: not once per node
_OP_NAMES: dict[type, tuple[tuple[str, ...], tuple[str, ...]]] = {}


def _op_names(cls: type) -> tuple[tuple[str, ...], tuple[str, ...]]:
    attrs = tuple(n for n in dir(cls) if n.startswith("op_"))
    names = _OP_NAMES[cls] = (tuple(n[3:] for n in attrs), attrs)
    return names


class _OpTable(dict):
    """A node's bound ``op_<name>`` methods by RPC method name — the
    engines' dispatch is one subscript: one getattr per op per node
    lifetime instead of one per request (~10 ns vs ~100 ns)."""

    def __init__(self, server: str, handler: object):
        cls = type(handler)
        methods, attrs = _OP_NAMES.get(cls) or _op_names(cls)
        try:
            # bound per node, so a method patched onto the class is seen
            super().__init__(zip(methods, map(getattr, repeat(handler), attrs)))
        except AttributeError:  # an op deleted from the class since it was cached
            methods, attrs = _op_names(cls)
            super().__init__(zip(methods, map(getattr, repeat(handler), attrs)))
        self.server = server
        self.handler = handler

    def __missing__(self, method: str):
        # a handler may grow ops after registration (test doubles do)
        fn = getattr(self.handler, "op_" + method, None)
        if fn is None:
            raise AttributeError(f"server {self.server!r} has no op {method!r}")
        self[method] = fn
        return fn


class ServerNode:
    """One simulated server process with FIFO service."""

    def __init__(self, name: str, handler: object, cost: CostModel):
        self.name = name
        self.handler = handler
        self.meter = Meter(KVCostPolicy(cost))
        #: absolute virtual time at which the server is next idle
        self.next_free = 0.0
        self.requests_served = 0
        self.busy_us = 0.0
        #: fault-injection bookkeeping (repro.sim.faults): crash count and
        #: virtual time spent replaying the WAL after restarts — the
        #: replay window also counts toward ``busy_us`` (the server is
        #: occupied, just not serving)
        self.crashes = 0
        self.recovered_us = 0.0
        self._ops = _OpTable(name, handler)
        #: the handler, when its KV store logs to a write-ahead log: the
        #: engines serve each of its requests in one group commit over
        #: ``handler.store``, read per request (a crash reopens it)
        store = getattr(handler, "store", None)
        self.logged = handler if store is not None and store._wal is not None else None


class Cluster:
    """Registry of server nodes addressed by name."""

    def __init__(self, cost: CostModel):
        self.cost = cost
        self._nodes: dict[str, ServerNode] = {}
        #: metrics registry shared by every node (None until a run opts in)
        self.metrics = None

    def add(self, name: str, handler: object) -> ServerNode:
        if name in self._nodes:
            raise ValueError(f"duplicate server name {name!r}")
        node = ServerNode(name, handler, self.cost)
        self._nodes[name] = node
        # hand the node's meter to the handler so its KV stores are metered
        attach = getattr(handler, "attach_meter", None)
        if attach is not None:
            attach(node.meter)
        if self.metrics is not None:
            self._bind_node(node)
        return node

    def attach_metrics(self, registry) -> None:
        """Namespace every node's KV counts (``<node>.kv.*``) and handler
        counters (``<node>.*``) into ``registry``; applies to nodes added
        later too."""
        self.metrics = registry
        for node in self._nodes.values():
            self._bind_node(node)

    def _bind_node(self, node: ServerNode) -> None:
        node.meter.bind_registry(self.metrics, f"{node.name}.kv.")
        bind = getattr(node.handler, "bind_metrics", None)
        if bind is not None:
            bind(self.metrics, f"{node.name}.")

    def __getitem__(self, name: str) -> ServerNode:
        return self._nodes[name]

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def names(self) -> list[str]:
        return list(self._nodes)

    def nodes(self) -> list[ServerNode]:
        return list(self._nodes.values())

    def reset_load(self) -> None:
        for n in self._nodes.values():
            n.next_free = 0.0
            n.requests_served = 0
            n.busy_us = 0.0
            n.crashes = 0
            n.recovered_us = 0.0
