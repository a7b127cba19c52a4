"""Cost metering for key-value stores.

The timing plane of this reproduction charges each KV operation a modeled
number of microseconds (see ``repro/sim/costmodel.py`` for the calibrated
constants).  The stores themselves only report *what* they did — op kind
and byte counts — and an attached :class:`CostPolicy` translates that into
virtual time.  A store with no meter attached gets a :class:`NullMeter`,
which counts but never prices; that is what the functional tests use.

**The ledger.**  A store's point op does not call the meter: it extends
the meter's ledger in place, ``meter.pending += (("get", nbytes),)`` — a
list in-place add, no Python frame.  A two-charge op (``put_pair``,
``append``, ``write_at``) adds both entries in one extend; a batched op
adds its op entry, then one ``("batch_record", 0)`` per further record.
:meth:`Meter.settle` is the one pricing loop: it prices the ledger in
order — the same float additions, trace-sink calls and registry
increments one charge per entry would make — and empties it.

**Who settles.**  The engines settle once per served request, while the
request's KV trace sink is still installed (``_EngineCore._serve``), and
at each batch-record boundary when a tracer is attached.  A scan charges
each record to the ledger and settles at least every
:data:`SCAN_SETTLE_EVERY` records and when it ends; a :class:`NullMeter`'s
ledger settles itself.  Everything else reads settled values: ``total_us``,
``op_counts`` and ``byte_counts`` are properties that settle first, and
:meth:`Meter.charge` and :meth:`Meter.charge_us` settle before they price,
so every charge lands in the order it was made.  Trace spans and registry
counts are emitted at settlement, to whatever sink is installed then:
settle before installing or removing ``trace`` and before snapshotting a
bound registry.
"""

from __future__ import annotations

from typing import Protocol

#: a scan settles the ledger at least this often, in records
SCAN_SETTLE_EVERY = 64


class CostPolicy(Protocol):
    """Maps a KV operation to a virtual-time cost in microseconds."""

    def cost_us(self, op: str, nbytes: int) -> float:  # pragma: no cover
        ...


class Meter:
    """Accumulates modeled virtual time and op counts for one store.

    When the attached policy exposes a ``_base`` table and ``_per_byte``
    rate (the :class:`~repro.sim.costmodel.KVCostPolicy` fast-path
    contract), :meth:`settle` inlines the cost arithmetic — one dict
    lookup plus one multiply-add, no policy call frame.  The expression is
    the same floats in the same order as
    :meth:`~repro.sim.costmodel.CostModel.kv_cost_us`, so virtual time is
    bit-identical; any other policy is called through ``cost_us``.
    """

    __slots__ = ("_policy", "_total_us", "_op_counts", "_byte_counts",
                 "pending", "trace", "_registry", "_prefix", "_base",
                 "_per_byte")

    def __init__(self, policy: CostPolicy | None = None):
        self._total_us = 0.0
        self._op_counts: dict[str, int] = {}
        self._byte_counts: dict[str, int] = {}
        #: the ledger: ``(op, nbytes)`` charges not yet priced, in order
        self.pending: list[tuple[str, int]] = []
        #: per-dispatch KV span sink (:class:`repro.obs.tracer.KVTraceSink`);
        #: the engines install and remove it around each server dispatch
        self.trace = None
        self._registry = None
        self._prefix = ""
        self.policy = policy

    @property
    def policy(self) -> CostPolicy | None:
        return self._policy

    @policy.setter
    def policy(self, policy: CostPolicy | None) -> None:
        if self.pending:
            self.settle()  # what was charged is priced by the old policy
        self._policy = policy
        # snapshot the fast-path table when the policy offers one
        self._base = getattr(policy, "_base", None)
        self._per_byte = getattr(policy, "_per_byte", 0.0)

    @property
    def total_us(self) -> float:
        return self.settle() if self.pending else self._total_us

    @property
    def op_counts(self) -> dict[str, int]:
        if self.pending:
            self.settle()
        return self._op_counts

    @property
    def byte_counts(self) -> dict[str, int]:
        if self.pending:
            self.settle()
        return self._byte_counts

    def bind_registry(self, registry, prefix: str = "kv.") -> None:
        """Mirror op counts into ``registry`` as ``<prefix><op>`` counters.

        Existing counts are flushed first, so binding mid-run loses nothing.
        """
        for op, n in self.op_counts.items():
            registry.counter(prefix + op).inc(n)
        self._registry = registry
        self._prefix = prefix

    def settle(self) -> float:
        """Price the ledger in order and empty it; returns ``total_us``.

        The hottest loop of a metered run: plain dict ops and one
        multiply-add per entry, with the rare hooks (registry, trace)
        behind ``None`` tests; try/except beats ``.get`` once the op key
        exists (always, after the first charge of each kind).
        """
        pending = self.pending
        op_counts = self._op_counts
        byte_counts = self._byte_counts
        trace = self.trace
        registry = self._registry
        total = self._total_us
        base = self._base
        policy = self._policy
        per_byte = self._per_byte
        for op, nbytes in pending:
            try:
                op_counts[op] += 1
            except KeyError:
                op_counts[op] = 1
            try:
                byte_counts[op] += nbytes
            except KeyError:
                byte_counts[op] = nbytes
            if registry is not None:
                registry.counter(self._prefix + op).inc()
            if base is not None:
                try:
                    cost = base[op] + nbytes * per_byte
                except KeyError:
                    cost = 0.0 + nbytes * per_byte
            elif policy is not None:
                cost = policy.cost_us(op, nbytes)
            else:
                continue  # no policy: counted, never priced
            total = total + cost
            if trace is not None:
                trace.kv(op, nbytes, cost)
        self._total_us = total
        del pending[:]
        return total

    def charge(self, op: str, nbytes: int = 0) -> None:
        """Charge one ``(op, nbytes)`` now, after whatever the ledger holds."""
        self.pending += ((op, nbytes),)
        self.settle()

    def charge_us(self, us: float, op: str = "explicit") -> None:
        """Charge an explicit amount of virtual time (e.g. serialization)."""
        if self.pending:
            self.settle()
        self._op_counts[op] = self._op_counts.get(op, 0) + 1
        if self._registry is not None:
            self._registry.counter(self._prefix + op).inc()
        self._total_us += us
        if self.trace is not None:
            self.trace.kv(op, 0, us)

    def snapshot(self) -> float:
        """Current accumulated virtual time; pair two snapshots to get a delta."""
        return self.total_us

    def count(self, op: str) -> int:
        return self.op_counts.get(op, 0)

    def reset(self) -> None:
        self.settle()
        self._total_us = 0.0
        self._op_counts.clear()
        self._byte_counts.clear()


class _SelfSettlingLedger(list):
    """A :class:`NullMeter`'s ledger: no engine settles it, so it settles
    itself past 4 096 entries and its store's memory stays bounded."""

    def __iadd__(self, entries):
        self.extend(entries)
        if len(self) > 4096:
            self.meter.settle()
        return self


class NullMeter(Meter):
    """A meter that never charges time (still counts ops for assertions)."""

    def __init__(self) -> None:
        super().__init__(policy=None)
        self.pending = _SelfSettlingLedger()
        self.pending.meter = self
