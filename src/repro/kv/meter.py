"""Cost metering for key-value stores.

The timing plane of this reproduction charges each KV operation a modeled
number of microseconds (see ``repro/sim/costmodel.py`` for the calibrated
constants).  The stores themselves only report *what* they did — op kind
and byte counts — and an attached :class:`CostPolicy` translates that into
virtual time.  With no meter attached the stores run at full speed, which
is what the functional tests use.
"""

from __future__ import annotations

from typing import Protocol


class CostPolicy(Protocol):
    """Maps a KV operation to a virtual-time cost in microseconds."""

    def cost_us(self, op: str, nbytes: int) -> float:  # pragma: no cover
        ...


class Meter:
    """Accumulates modeled virtual time and op counts for one store.

    When the attached policy exposes a ``_base`` table and ``_per_byte``
    rate (the :class:`~repro.sim.costmodel.KVCostPolicy` fast-path
    contract), :meth:`charge` inlines the cost arithmetic — one dict
    lookup plus one multiply-add, no policy call frame.  The expression is
    the same floats in the same order as
    :meth:`~repro.sim.costmodel.CostModel.kv_cost_us`, so virtual time is
    bit-identical; any other policy is called through ``cost_us``.
    """

    __slots__ = ("_policy", "total_us", "op_counts", "byte_counts", "trace",
                 "_registry", "_prefix", "_base", "_per_byte")

    def __init__(self, policy: CostPolicy | None = None):
        self.total_us = 0.0
        self.op_counts: dict[str, int] = {}
        self.byte_counts: dict[str, int] = {}
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
        self._policy = policy
        # snapshot the fast-path table when the policy offers one
        self._base = getattr(policy, "_base", None)
        self._per_byte = getattr(policy, "_per_byte", 0.0)

    def bind_registry(self, registry, prefix: str = "kv.") -> None:
        """Mirror op counts into ``registry`` as ``<prefix><op>`` counters.

        Existing counts are flushed first, so binding mid-run loses nothing.
        """
        self._registry = registry
        self._prefix = prefix
        for op, n in self.op_counts.items():
            registry.counter(prefix + op).inc(n)

    def charge(self, op: str, nbytes: int = 0) -> None:
        # hottest call in a metered run: keep it to plain dict ops and one
        # multiply-add, with the rare hooks (registry, trace) behind None
        # tests; try/except beats .get once the op key exists (always,
        # after the first charge of each kind)
        try:
            self.op_counts[op] += 1
        except KeyError:
            self.op_counts[op] = 1
        try:
            self.byte_counts[op] += nbytes
        except KeyError:
            self.byte_counts[op] = nbytes
        base = self._base
        if base is not None:
            try:
                cost = base[op] + nbytes * self._per_byte
            except KeyError:
                cost = 0.0 + nbytes * self._per_byte
            self.total_us += cost
            if self.trace is not None:
                self.trace.kv(op, nbytes, cost)
        else:
            policy = self._policy
            if policy is not None:
                cost = policy.cost_us(op, nbytes)
                self.total_us += cost
                if self.trace is not None:
                    self.trace.kv(op, nbytes, cost)
        if self._registry is not None:
            self._registry.counter(self._prefix + op).inc()

    def charge_many(self, items) -> None:
        """Charge a sequence of ``(op, nbytes)`` pairs in one call.

        Bit-identical to calling :meth:`charge` once per pair in order
        (the accumulation is the same sequential adds, hoisted into a
        local), but pays the method-call overhead once per batch.  Falls
        back to per-pair :meth:`charge` whenever a hook (trace, registry)
        or a non-table policy is active.
        """
        base = self._base
        if base is None or self.trace is not None or self._registry is not None:
            for op, nbytes in items:
                self.charge(op, nbytes)
            return
        op_counts = self.op_counts
        byte_counts = self.byte_counts
        per_byte = self._per_byte
        total = self.total_us
        for op, nbytes in items:
            try:
                op_counts[op] += 1
            except KeyError:
                op_counts[op] = 1
            try:
                byte_counts[op] += nbytes
            except KeyError:
                byte_counts[op] = nbytes
            try:
                total = total + (base[op] + nbytes * per_byte)
            except KeyError:
                total = total + (0.0 + nbytes * per_byte)
        self.total_us = total

    def charge_repeat(self, op: str, n: int) -> None:
        """Exactly ``n`` zero-byte charges of ``op`` in one call.

        Bit-identical to calling :meth:`charge` ``n`` times (the cost is
        re-added per record, in the same order), but pays the Python call
        overhead once — the batched multi-op path charges ``batch_record``
        per additional record through this.
        """
        if n <= 0:
            return
        try:
            self.op_counts[op] += n
        except KeyError:
            self.op_counts[op] = n
        if op not in self.byte_counts:
            self.byte_counts[op] = 0
        base = self._base
        policy = self._policy
        if base is not None:
            cost = base.get(op, 0.0)
            trace = self.trace
            if trace is None:
                total = self.total_us
                for _ in range(n):
                    total = total + cost
                self.total_us = total
            else:
                for _ in range(n):
                    self.total_us += cost
                    trace.kv(op, 0, cost)
        elif policy is not None:
            cost = policy.cost_us(op, 0)
            trace = self.trace
            for _ in range(n):
                self.total_us += cost
                if trace is not None:
                    trace.kv(op, 0, cost)
        if self._registry is not None:
            self._registry.counter(self._prefix + op).inc(n)

    def charge_us(self, us: float, op: str = "explicit") -> None:
        """Charge an explicit amount of virtual time (e.g. serialization)."""
        self.op_counts[op] = self.op_counts.get(op, 0) + 1
        if self._registry is not None:
            self._registry.counter(self._prefix + op).inc()
        self.total_us += us
        if self.trace is not None:
            self.trace.kv(op, 0, us)

    def snapshot(self) -> float:
        """Current accumulated virtual time; pair two snapshots to get a delta."""
        return self.total_us

    def count(self, op: str) -> int:
        return self.op_counts.get(op, 0)

    def reset(self) -> None:
        self.total_us = 0.0
        self.op_counts.clear()
        self.byte_counts.clear()


class NullMeter(Meter):
    """A meter that never charges time (still counts ops for assertions)."""

    def __init__(self) -> None:
        super().__init__(policy=None)
