"""The meter's ledger prices exactly what per-op charging priced.

The KV stores extend ``Meter.pending`` and the engines settle it once per
request.  These tests hold that to the arithmetic it replaced — every
charge priced the moment it is made, one float addition each — and bound
how far the ledger may grow: empty after every served request, at most
``SCAN_SETTLE_EVERY`` entries during a scan and none after it, and bounded
on a store no engine settles.  They also bound the settle's own state
(the tally and the price memo stay within ``FOLD_BOUND``) and its work
(bytecodes per settle against the per-op reference).
"""

import sys
from functools import partial
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.fig14_rename import DeviceKVPolicy
from repro.harness.registry import make_system
from repro.kv import BTreeStore, HashStore, LSMStore
from repro.kv import meter as meter_mod
from repro.kv.meter import FOLD_BOUND, SCAN_SETTLE_EVERY, Meter
from repro.obs.metrics import MetricsRegistry
from repro.sim import engine as engine_mod
from repro.sim.costmodel import SSD, CostModel, KVCostPolicy
from repro.sim.faults import FaultSchedule


class _PerOpMeter:
    """The reference: each charge priced as it is made, by the per-op
    arithmetic the ledger replaced (a table policy's ``_base`` /
    ``_per_byte`` inline, any other through ``cost_us``).  A store's
    ledger extend lands in ``_PriceNow``, which prices every entry at
    once, so the reference never holds an unpriced charge."""

    def __init__(self, policy):
        self.total_us = 0.0
        self.op_counts: dict[str, int] = {}
        self.byte_counts: dict[str, int] = {}
        self.trace = None
        self._registry = None
        self._prefix = ""
        self.policy = policy
        self.pending = _PriceNow(self)

    @property
    def policy(self):
        return self._policy

    @policy.setter
    def policy(self, policy):
        self._policy = policy
        self._base = getattr(policy, "_base", None)
        self._per_byte = getattr(policy, "_per_byte", 0.0)

    def bind_registry(self, registry, prefix):
        self._registry = registry
        self._prefix = prefix
        for op, n in self.op_counts.items():
            registry.counter(prefix + op).inc(n)

    def charge(self, op, nbytes=0):
        self.op_counts[op] = self.op_counts.get(op, 0) + 1
        self.byte_counts[op] = self.byte_counts.get(op, 0) + nbytes
        if self._base is not None:
            cost = self._base.get(op, 0.0) + nbytes * self._per_byte
        elif self._policy is not None:
            cost = self._policy.cost_us(op, nbytes)
        else:
            cost = None
        if cost is not None:
            self.total_us += cost
            if self.trace is not None:
                self.trace.kv(op, nbytes, cost)
        if self._registry is not None:
            self._registry.counter(self._prefix + op).inc()

    def charge_us(self, us, op="explicit"):
        self.op_counts[op] = self.op_counts.get(op, 0) + 1
        if self._registry is not None:
            self._registry.counter(self._prefix + op).inc()
        self.total_us += us
        if self.trace is not None:
            self.trace.kv(op, 0, us)

    def settle(self):
        return self.total_us


class _PriceNow:
    """``meter.pending`` of the reference: ``+=`` charges each entry, an
    explicit ``(op, None, us)`` one through ``charge_us``."""

    def __init__(self, meter):
        self._meter = meter

    def __iadd__(self, entries):
        for op, nbytes, *us in entries:
            if nbytes is None:
                self._meter.charge_us(us[0], op)
            else:
                self._meter.charge(op, nbytes)
        return self


class _Log:
    """A trace sink that records each priced charge, cost in hex."""

    def __init__(self):
        self.log = []

    def kv(self, op, nbytes, cost_us):
        self.log.append((op, nbytes, cost_us.hex()))


_POLICIES = {
    "table": lambda: KVCostPolicy(CostModel()),
    "device": lambda: DeviceKVPolicy(CostModel(), SSD),
}
_STORES = {
    "hash": HashStore,
    "btree": BTreeStore,
    # a small memtable: the ops below meet flushes and compactions
    "lsm": lambda meter: LSMStore(meter=meter, wal_enabled=False,
                                  memtable_limit=256, max_tables=2),
}

_KEY = st.sampled_from([b"a", b"ab", b"abc", b"b", b"ba", b"c" * 9, b""])
_VALUE = st.binary(max_size=24)
_OPS = st.lists(st.one_of(
    st.tuples(st.just("get"), _KEY),
    st.tuples(st.just("put"), _KEY, _VALUE),
    st.tuples(st.just("delete"), _KEY),
    st.tuples(st.just("append"), _KEY, _VALUE),
    st.tuples(st.just("write_at"), _KEY, st.integers(0, 6), st.binary(max_size=4)),
    st.tuples(st.just("put_pair"), _KEY, _VALUE, _KEY, _VALUE),
    st.tuples(st.just("multi_get"), st.lists(_KEY, max_size=5)),
    st.tuples(st.just("multi_put"), st.lists(st.tuples(_KEY, _VALUE), max_size=5)),
    st.tuples(st.just("scan"), st.sampled_from([b"", b"a", b"b", b"z"]),
              st.integers(0, 4)),
    st.tuples(st.just("items")),
    st.tuples(st.just("charge_us"), st.floats(0.0, 50.0), st.sampled_from(
        ["serialize", "explicit"])),
    # an explicit entry written as the servers write it; "get" shares its
    # op name with priced entries
    st.tuples(st.just("explicit"), st.sampled_from(["serialize", "get"]),
              st.sampled_from([0.0, 0.75, 1.5, 2.25])),
    st.tuples(st.just("policy"), st.sampled_from(["table", "device", None])),
    st.tuples(st.just("read")),
    st.tuples(st.just("counts")),
    st.tuples(st.just("registry")),
    st.tuples(st.just("settle")),
), max_size=40)


def _run(store, meter, registry, op, args):
    """One op of the interleaving; what it returns is compared too."""
    if op == "put_pair":
        if not hasattr(store, "put_pair"):
            k1, v1, k2, v2 = args
            return store.put(k1, v1), store.put(k2, v2)
    if op == "multi_put" and not hasattr(store, "multi_put"):
        return [store.put(k, v) for k, v in args[0]]
    if op == "multi_get" and not hasattr(store, "multi_get"):
        return [store.get(k) for k in args[0]]
    if op == "scan":
        prefix, n = args
        return list(islice(store.prefix_scan(prefix), n))
    if op == "items":
        return sorted(store.items())
    if op == "charge_us":
        return meter.charge_us(*args)
    if op == "explicit":
        name, us = args
        meter.pending += ((name, None, us),)
        return None
    if op == "policy":
        meter.policy = _POLICIES[args[0]]() if args[0] else None
        return None
    if op == "read":
        return meter.total_us.hex()
    if op == "counts":
        return dict(meter.op_counts), dict(meter.byte_counts)
    if op == "registry":  # a bound registry is exact after a settle
        meter.settle()
        return registry.snapshot()["counters"]
    if op == "settle":
        return meter.settle().hex()
    return getattr(store, op)(*args)


def _after(store_kind, meter, hook, ops):
    """Run ``ops`` on a fresh ``store_kind`` store over ``meter``."""
    store = _STORES[store_kind](meter)
    log, registry = _Log(), MetricsRegistry()
    if hook in ("trace", "both"):
        meter.trace = log
    if hook in ("registry", "both"):
        meter.bind_registry(registry, "mds0.kv.")
    results = [_run(store, meter, registry, op, args) for op, *args in ops]
    store.close()
    return {
        "results": results,
        "total_us": meter.total_us.hex(),
        "op_counts": dict(meter.op_counts),
        "byte_counts": dict(meter.byte_counts),
        "trace": log.log,
        "counters": registry.snapshot()["counters"],
    }


class TestLedgerPricesAsPerOpCharging:
    @pytest.mark.parametrize("store_kind", sorted(_STORES))
    @pytest.mark.parametrize("policy", sorted(_POLICIES))
    @pytest.mark.parametrize("hook", ["none", "trace", "registry", "both"])
    @settings(max_examples=25, deadline=None)
    @given(ops=_OPS)
    def test_same_bits_as_the_reference(self, store_kind, policy, hook, ops):
        """Both at the shipped fold bound and at one that folds the tally
        after every few distinct entries."""
        want = _after(store_kind, _PerOpMeter(_POLICIES[policy]()), hook, ops)
        assert _after(store_kind, Meter(_POLICIES[policy]()), hook, ops) == want
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(meter_mod, "FOLD_BOUND", 2)
            assert _after(store_kind, Meter(_POLICIES[policy]()), hook, ops) == want

    @pytest.mark.parametrize("store_kind", sorted(_STORES))
    @pytest.mark.parametrize("policy", sorted(_POLICIES))
    @pytest.mark.parametrize("hook", ["none", "both"])
    def test_point_ops_inside_a_long_scan_keep_their_place(self, store_kind, policy, hook):
        """A scan past several settle points, with a ``get`` after each
        record and an explicit charge after every 50th."""
        keys = [b"k%04d" % i for i in range(300)]

        def after(meter):
            store = _STORES[store_kind](meter)
            log, registry = _Log(), MetricsRegistry()
            if hook == "both":
                meter.trace = log
                meter.bind_registry(registry, "mds0.kv.")
            for k in keys:
                store.put(k, k * 3)
            seen = []
            for i, (k, v) in enumerate(store.prefix_scan(b"k")):
                seen.append((k, store.get(k) == v))
                if i % 50 == 49:
                    meter.charge_us(1.25, "serialize")
            store.close()
            return (seen, meter.total_us.hex(), dict(meter.op_counts),
                    dict(meter.byte_counts), log.log,
                    registry.snapshot()["counters"])

        got = after(Meter(_POLICIES[policy]()))
        assert got == after(_PerOpMeter(_POLICIES[policy]()))
        assert len(got[0]) == len(keys)
        if hook == "both":  # each record is charged before it is handed out
            ops = [op for op, _, _ in got[4]]
            ops = ops[ops.index("scan_record"):]
            want = []
            for i in range(len(keys)):
                want += ["scan_record", "get"] + (["serialize"] if i % 50 == 49 else [])
            assert ops == want

    def test_a_policy_swap_prices_what_was_charged_by_the_old_policy(self):
        meter = Meter(KVCostPolicy(CostModel()))
        store = HashStore(meter=meter)
        store.put(b"k", b"v" * 10)
        ref = _PerOpMeter(KVCostPolicy(CostModel()))
        ref.charge("put", 11)
        meter.policy = None
        store.get(b"k")
        assert meter.total_us.hex() == ref.total_us.hex()
        assert meter.op_counts == {"put": 1, "get": 1}


class TestSettleWork:
    #: the shape of a LocoFS create's FMS ledger
    CREATE = (("get", 18), ("get", 13), ("put", 21), ("put", 38), ("get", 10),
              ("put", 29))

    def test_a_create_settle_runs_at_most_six_tenths_of_per_op_pricing(self):
        """In bytecodes executed, counted in this interpreter: a warm
        settle of the create ledger against the reference pricing the
        same six charges one frame each (3.10-3.12: 0.42-0.47)."""
        policy = KVCostPolicy(CostModel())
        meter, ref = Meter(policy), _PerOpMeter(policy)
        for m in (meter, ref):  # every entry seen before, as in a run
            m.pending += self.CREATE
            m.settle()
        for _ in range(2):  # CPython 3.12+ misses the first frame it traces
            meter.pending += self.CREATE
            got = _bytecodes(meter.settle)
            want = sum(_bytecodes(partial(ref.charge, op, n))
                       for op, n in self.CREATE)
        assert meter.total_us.hex() == ref.total_us.hex()
        assert 0 < got <= 0.6 * want, (got, want)


def _bytecodes(fn) -> int:
    """Bytecode instructions ``fn()`` executes, in every frame it enters."""
    count = 0

    def opcode(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return opcode

    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        return opcode

    saved = sys.gettrace()
    sys.settrace(call)
    try:
        fn()
    finally:
        sys.settrace(saved)
    return count


# -- how far the ledger grows ------------------------------------------------------

def _drive(fs):
    """One client issuing each request kind: directory and file creates,
    reads, updates, a rename, removals and a data write."""
    c = fs.client()
    c.mkdir("/d")
    c.mkdir("/d/e")
    for name in ("f", "g", "h"):
        c.create(f"/d/{name}")
    c.write("/d/f", 0, b"x" * 100)
    c.stat_file("/d/f")
    c.chmod("/d/g", 0o600)
    c.readdir("/d")
    c.rename("/d/g", "/d/e/g")
    c.unlink("/d/h")
    c.unlink("/d/e/g")
    if hasattr(c, "flush"):
        c.flush()
    c.stat_dir("/d/e")
    c.rmdir("/d/e")


class TestLedgerBound:
    @pytest.mark.parametrize("engine_kind", ["direct", "event"])
    @pytest.mark.parametrize("system", ["locofs-c", "locofs-a", "indexfs"])
    def test_empty_after_every_served_request(self, monkeypatch, system, engine_kind):
        serve = engine_mod._EngineCore._serve
        served = []

        def checked(self, state, cmd, *args, **kwargs):
            out = serve(self, state, cmd, *args, **kwargs)
            left = {name: node.meter.pending for name, node in self._nodes.items()
                    if node.meter.pending}
            assert not left, (cmd, left)
            served.append(cmd)
            return out

        monkeypatch.setattr(engine_mod._EngineCore, "_serve", checked)
        fs = make_system(system, 2, engine_kind=engine_kind)
        fs.engine.attach_faults(FaultSchedule())
        _drive(fs)
        assert len(served) >= 10

    @pytest.mark.parametrize("kind", ["hash", "btree", "lsm"])
    def test_a_scan_of_10k_records_keeps_the_ledger_bounded(self, kind):
        meter = Meter(KVCostPolicy(CostModel()))
        store = {"hash": HashStore, "btree": BTreeStore,
                 "lsm": lambda meter: LSMStore(meter=meter, wal_enabled=False)}[kind](meter)
        for i in range(10_000):
            store.put(b"r%05d" % i, b"v")
        meter.settle()
        most = 0
        for _ in store.prefix_scan(b"r"):
            most = max(most, len(meter.pending))
        assert most <= SCAN_SETTLE_EVERY + 1  # the records since the last settle, and a seek
        assert not meter.pending  # a scan that ran to its end leaves nothing
        store.close()
        assert meter.op_counts["scan_record"] == 10_000

    def test_distinct_sizes_keep_the_tally_and_memo_bounded(self):
        """100 000 requests, each a put and a get of a size never seen
        before, as IndexFS's read-modify-write produces them."""
        meter = Meter(KVCostPolicy(CostModel()))
        ref = _PerOpMeter(KVCostPolicy(CostModel()))
        store = HashStore(meter=meter)
        blob = memoryview(bytes(100_000))  # values of every size, no copies
        most = 0
        for i in range(100_000):
            store.put(b"k", blob[:i])
            store.get(b"k")
            meter.settle()
            most = max(most, len(meter._tally), len(meter._memo))
            ref.pending += (("put", 1 + i), ("get", 1 + i))
        assert most <= FOLD_BOUND
        assert meter.total_us.hex() == ref.total_us.hex()
        assert meter.op_counts == ref.op_counts == {"put": 100_000, "get": 100_000}
        assert meter.byte_counts == ref.byte_counts

    @pytest.mark.parametrize("kind", ["hash", "btree", "lsm"])
    def test_a_store_with_no_meter_keeps_its_ledger_bounded(self, kind):
        store = {"hash": HashStore, "btree": BTreeStore,
                 "lsm": lambda: LSMStore(wal_enabled=False)}[kind]()
        most = 0
        for i in range(100_000):
            store.put(b"r%02d" % (i % 64), b"v")
            most = max(most, len(store.meter.pending))
        store.close()
        assert most <= 4097
        assert store.meter.count("put") == 100_000
