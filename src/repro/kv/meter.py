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
An *explicit* charge carries its own price instead of a byte count,
``(op, None, us)``: a server's software overhead, (de)serialisation and a
group commit's fsync are written the same way (:meth:`Meter.charge_us`
is the one-line spelling), so they take their place in ledger order and
pay no meter frame.  An explicit entry counts one ``op`` and no bytes,
and is priced whatever the policy.

**Settling.**  :meth:`Meter.settle` is the one pricing loop.  It adds the
entries' prices to ``total_us`` in ledger order — the same float additions
pricing each charge as it was made would do — and empties the ledger.  A
price is computed the first time an entry is seen and kept in a memo
keyed by the entry tuple itself, so a policy must price ``(op, nbytes)``
as a pure function.  Counting is deferred: the loop adds one to a
*tally* keyed by that same tuple, and ``op_counts`` / ``byte_counts`` are
folded from the tally when they are read.

**The fold rule.**  The tally and the memo always hold the same keys.
Both are folded away and start empty when a settle leaves more than
:data:`FOLD_BOUND` distinct entries in them, when the counts are read,
and when the policy changes (its prices die with it).  So memory stays
flat however many distinct byte counts a run produces.  With a registry
bound, every settle folds, and the registry's ``<prefix><op>`` counters
are mirrored at the fold.

**Who settles, and when counts are exact.**  The engines settle once per
served request, while the request's KV trace sink is still installed
(``_EngineCore._serve``), and at each batch-record boundary when a tracer
is attached.  A scan charges each record to the ledger and settles at
least every :data:`SCAN_SETTLE_EVERY` records and when it ends; a
:class:`NullMeter`'s ledger settles itself.  Reads are always exact:
``total_us`` settles first, and ``op_counts`` / ``byte_counts`` settle and
fold first.  Trace spans are emitted at settlement, to whatever sink is
installed then, so settle before installing or removing ``trace``.  A
bound registry is exact after every settle; settle before snapshotting it.
"""

from __future__ import annotations

from functools import partial
from typing import Protocol

#: a scan settles the ledger at least this often, in records
SCAN_SETTLE_EVERY = 64

#: a settle that leaves more distinct entries than this in the tally (and
#: the price memo) folds them into the counts
FOLD_BOUND = 64


class CostPolicy(Protocol):
    """Maps a KV operation to a virtual-time cost in microseconds.

    The meter prices each distinct ``(op, nbytes)`` once and memoises it,
    so ``cost_us`` must depend on its arguments alone.
    """

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
                 "_per_byte", "_tally", "_memo", "_room")

    def __init__(self, policy: CostPolicy | None = None):
        self._total_us = 0.0
        self._op_counts: dict[str, int] = {}
        self._byte_counts: dict[str, int] = {}
        #: the ledger: ``(op, nbytes)`` and ``(op, None, us)`` charges not
        #: yet priced, in order
        self.pending: list[tuple] = []
        #: settled entries not yet folded into the counts, and their prices
        self._tally: dict[tuple, int] = {}
        self._memo: dict[tuple, float] = {}
        #: distinct entries the tally may still take before a settle folds
        #: it; below zero, the next settle folds
        self._room = FOLD_BOUND
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
        if self.pending or self._tally:
            # what was charged is priced by the old policy, whose memo goes
            self.settle(read="op_counts")
        self._policy = policy
        # snapshot the fast-path table when the policy offers one
        self._base = getattr(policy, "_base", None)
        self._per_byte = getattr(policy, "_per_byte", 0.0)

    @property
    def total_us(self) -> float:
        return self.settle() if self.pending else self._total_us

    def bind_registry(self, registry, prefix: str = "kv.") -> None:
        """Mirror op counts into ``registry`` as ``<prefix><op>`` counters.

        Existing counts are flushed first, so binding mid-run loses nothing.
        """
        for op, n in self.op_counts.items():
            registry.counter(prefix + op).inc(n)
        self._registry = registry
        self._prefix = prefix
        self._room = -1  # from now on every settle folds

    def settle(self, read: str | None = None):
        """Price the ledger in order and empty it; returns ``total_us``.

        The hottest loop of a metered run: per entry, one tally increment
        and one memo lookup and float addition, and nothing else.  An
        entry's first sight prices it inline, and the fold runs inline
        too: both run inside measured waves, where every call is counted.
        A trace sink gets the priced entries, in order, behind one
        ``None`` test per settle.

        ``read`` names a count dict, ``"op_counts"`` or ``"byte_counts"``:
        the tally is then folded whatever its size, and that dict is
        returned.  Those two properties are this function with ``read``
        bound, so a read costs one frame, settled or not.
        """
        pending = self.pending
        tally = self._tally
        memo = self._memo
        total = self._total_us
        for entry in pending:
            try:
                tally[entry] += 1
            except KeyError:  # first sight since the last fold: price it
                tally[entry] = 1
                self._room -= 1
                nbytes = entry[1]
                if nbytes is None:
                    cost = entry[2]
                elif self._base is not None:
                    try:
                        cost = self._base[entry[0]] + nbytes * self._per_byte
                    except KeyError:
                        cost = 0.0 + nbytes * self._per_byte
                elif self._policy is not None:
                    cost = self._policy.cost_us(entry[0], nbytes)
                else:
                    # counted, never priced: adding 0.0 to a sum that is
                    # never -0.0 leaves every bit of it
                    cost = 0.0
                memo[entry] = cost
                total += cost
            else:
                total += memo[entry]
        self._total_us = total
        trace = self.trace
        if trace is not None:
            priced = self._policy is not None
            for entry in pending:
                if priced or entry[1] is None:
                    trace.kv(entry[0], entry[1] or 0, memo[entry])
        del pending[:]
        if self._room < 0 or read is not None:
            registry = self._registry
            op_counts = self._op_counts
            byte_counts = self._byte_counts
            for entry in tally:  # subscripts, not .items(): no counted call
                n = tally[entry]
                op = entry[0]
                try:
                    op_counts[op] += n
                except KeyError:
                    op_counts[op] = n
                nbytes = entry[1]
                if nbytes is not None:
                    try:
                        byte_counts[op] += nbytes * n
                    except KeyError:
                        byte_counts[op] = nbytes * n
                if registry is not None:
                    registry.counter(self._prefix + op).inc(n)
            self._tally = {}
            self._memo = {}
            # a bound registry is mirrored at every settle
            self._room = FOLD_BOUND if registry is None else -1
        if read is None:
            return total
        return self._op_counts if read == "op_counts" else self._byte_counts

    op_counts = property(partial(settle, read="op_counts"),
                         doc="ops counted so far, by op kind")
    byte_counts = property(partial(settle, read="byte_counts"),
                           doc="bytes counted so far, by op kind")

    def charge_us(self, us: float, op: str = "explicit") -> None:
        """Charge an explicit amount of virtual time (e.g. serialization)."""
        self.pending += ((op, None, us),)

    def snapshot(self) -> float:
        """Current accumulated virtual time; pair two snapshots to get a delta."""
        return self.total_us

    def count(self, op: str) -> int:
        return self.op_counts.get(op, 0)

    def reset(self) -> None:
        self.settle(read="op_counts")
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
