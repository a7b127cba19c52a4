"""Behavioural tests shared by all three KV stores, plus store-specific ones."""

import os
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kv import BTreeStore, HashStore, KVStore, LSMStore, make_store
from repro.kv.btree import BRANCH, _Internal
from repro.kv.meter import Meter
from repro.kv.wal import OP_APPEND, WriteAheadLog
from repro.obs import MetricsRegistry, Tracer
from repro.obs.tracer import KVTraceSink
from repro.sim.costmodel import CostModel, KVCostPolicy


@pytest.fixture(params=["lsm", "btree", "hash"])
def store(request, tmp_path):
    if request.param == "lsm":
        s = LSMStore(directory=str(tmp_path / "lsm"))
    elif request.param == "btree":
        s = BTreeStore()
    else:
        s = HashStore()
    yield s
    s.close()


class TestCommonBehaviour:
    def test_get_missing(self, store):
        assert store.get(b"missing") is None

    def test_put_get(self, store):
        store.put(b"k", b"v")
        assert store.get(b"k") == b"v"

    def test_overwrite(self, store):
        store.put(b"k", b"v1")
        store.put(b"k", b"v2")
        assert store.get(b"k") == b"v2"
        assert len(store) == 1

    def test_delete(self, store):
        store.put(b"k", b"v")
        assert store.delete(b"k") is True
        assert store.get(b"k") is None
        assert store.delete(b"k") is False

    def test_len(self, store):
        for i in range(20):
            store.put(f"k{i}".encode(), b"v")
        assert len(store) == 20
        store.delete(b"k0")
        assert len(store) == 19

    def test_contains(self, store):
        store.put(b"here", b"v")
        assert b"here" in store
        assert b"gone" not in store

    def test_append_creates_and_extends(self, store):
        store.append(b"log", b"aa")
        store.append(b"log", b"bb")
        assert store.get(b"log") == b"aabb"

    def test_every_read_of_a_grown_value_is_bytes(self, store):
        """A value grown by appends reads back as ``bytes`` through every
        read path, each met while the value is still growing."""
        reads = {
            "get": lambda: store.get(b"log"),
            "items": lambda: dict(store.items())[b"log"],
            "read_at": lambda: store.read_at(b"log", 1, 3),
        }
        if store.ordered:
            reads["scan"] = lambda: dict(store.scan(b"log", b"loh"))[b"log"]
            reads["prefix_scan"] = lambda: dict(store.prefix_scan(b"lo"))[b"log"]
        else:  # only the FMS's hash store batches
            reads["multi_get"] = lambda: store.multi_get([b"log"])[0]
        want = b""
        for name, read in reads.items():
            for part in (b"ab", b"cd"):
                store.append(b"log", part)
                want += part
            got = read()
            assert type(got) is bytes, name
            assert got == (want[1:4] if name == "read_at" else want), name
        store.append(b"log", b"ef")
        assert store.write_at(b"log", 0, b"X") is True
        assert store.get(b"log") == b"X" + (want + b"ef")[1:]

    def test_write_at_in_place(self, store):
        store.put(b"rec", b"0123456789")
        assert store.write_at(b"rec", 2, b"XY") is True
        assert store.get(b"rec") == b"01XY456789"

    def test_write_at_out_of_bounds(self, store):
        store.put(b"rec", b"abc")
        assert store.write_at(b"rec", 2, b"toolong") is False
        assert store.write_at(b"missing", 0, b"x") is False

    def test_read_at(self, store):
        store.put(b"rec", b"0123456789")
        assert store.read_at(b"rec", 3, 4) == b"3456"
        assert store.read_at(b"rec", 8, 5) is None
        assert store.read_at(b"missing", 0, 1) is None

    def test_items_contains_all_live_keys(self, store):
        for i in range(10):
            store.put(f"k{i}".encode(), str(i).encode())
        store.delete(b"k5")
        got = dict(store.items())
        assert len(got) == 9
        assert b"k5" not in got

    def test_empty_value(self, store):
        store.put(b"empty", b"")
        assert store.get(b"empty") == b""
        # an empty value is still a live key
        assert b"empty" in store

    def test_binary_keys(self, store):
        key = bytes([0, 255, 1, 254])
        store.put(key, b"bin")
        assert store.get(key) == b"bin"


class TestOrderedStores:
    @pytest.fixture(params=["lsm", "btree"])
    def ostore(self, request, tmp_path):
        if request.param == "lsm":
            s = LSMStore(directory=str(tmp_path / "lsm"))
        else:
            s = BTreeStore()
        yield s
        s.close()

    def test_items_sorted(self, ostore):
        import random

        rng = random.Random(1)
        keys = {f"{rng.randrange(10**6):06d}".encode() for _ in range(500)}
        for k in keys:
            ostore.put(k, k)
        assert [k for k, _ in ostore.items()] == sorted(keys)

    def test_scan_range(self, ostore):
        for i in range(100):
            ostore.put(f"{i:03d}".encode(), b"v")
        got = [k for k, _ in ostore.scan(b"020", b"025")]
        assert got == [b"020", b"021", b"022", b"023", b"024"]

    def test_prefix_scan(self, ostore):
        ostore.put(b"/a/x", b"1")
        ostore.put(b"/a/y", b"2")
        ostore.put(b"/ab", b"3")
        ostore.put(b"/b/z", b"4")
        got = sorted(k for k, _ in ostore.prefix_scan(b"/a/"))
        assert got == [b"/a/x", b"/a/y"]

    def test_prefix_scan_excludes_deleted(self, ostore):
        ostore.put(b"/d/1", b"v")
        ostore.put(b"/d/2", b"v")
        ostore.delete(b"/d/1")
        assert [k for k, _ in ostore.prefix_scan(b"/d/")] == [b"/d/2"]


class TestHashStore:
    def test_unordered_flag(self):
        assert HashStore.ordered is False

    def test_scan_unsupported(self):
        s = HashStore()
        with pytest.raises(NotImplementedError):
            next(iter(s.scan(b"a", b"b")))

    def test_prefix_scan_full_scan_charges_every_record(self):
        meter = Meter()
        s = HashStore(meter=meter)
        for i in range(50):
            s.put(f"other/{i}".encode(), b"v")
        s.put(b"target/x", b"v")
        hits = list(s.prefix_scan(b"target/"))
        assert len(hits) == 1
        # every one of the 51 records was examined
        assert meter.count("scan_record") == 51

    def test_move_prefix(self):
        s = HashStore()
        s.put(b"/old/a", b"1")
        s.put(b"/old/b", b"2")
        s.put(b"/other", b"3")
        assert s.move_prefix(b"/old/", b"/new/") == 2
        assert s.get(b"/new/a") == b"1"
        assert s.get(b"/old/a") is None
        assert s.get(b"/other") == b"3"

    def test_wal_recovery(self, tmp_path):
        path = str(tmp_path / "hash.wal")
        s = HashStore(wal_path=path)
        s.put(b"a", b"1")
        s.put(b"b", b"2")
        s.delete(b"a")
        s.close()
        s2 = HashStore(wal_path=path)
        assert s2.get(b"a") is None
        assert s2.get(b"b") == b"2"
        s2.close()


class TestBTreeStore:
    def test_many_inserts_stay_sorted(self):
        s = BTreeStore()
        import random

        rng = random.Random(9)
        keys = [f"{rng.randrange(10**8):08d}".encode() for _ in range(5000)]
        for k in keys:
            s.put(k, k)
        out = [k for k, _ in s.items()]
        assert out == sorted(set(keys))
        assert len(s) == len(set(keys))

    def test_move_prefix_contiguous(self):
        s = BTreeStore()
        for name in ["a/1", "a/2", "a/sub/3", "b/1"]:
            s.put(name.encode(), name.encode())
        moved = s.move_prefix(b"a/", b"c/")
        assert moved == 3
        assert s.get(b"c/sub/3") == b"a/sub/3"
        assert s.get(b"a/1") is None
        assert s.get(b"b/1") == b"b/1"

    def test_move_prefix_only_scans_range(self):
        meter = Meter()
        s = BTreeStore(meter=meter)
        for i in range(100):
            s.put(f"zzz/{i:03d}".encode(), b"v")
        for i in range(5):
            s.put(f"aaa/{i}".encode(), b"v")
        s.move_prefix(b"aaa/", b"bbb/")
        # only the 5 matching records are read, not the 100 others
        assert meter.count("scan_record") == 5

    def test_wal_recovery(self, tmp_path):
        path = str(tmp_path / "btree.wal")
        s = BTreeStore(wal_path=path)
        for i in range(200):
            s.put(f"k{i:03d}".encode(), str(i).encode())
        s.delete(b"k100")
        s.close()
        s2 = BTreeStore(wal_path=path)
        assert len(s2) == 199
        assert s2.get(b"k100") is None
        assert s2.get(b"k199") == b"199"
        s2.close()

    def test_deep_tree_lookup(self):
        s = BTreeStore()
        n = 20000
        for i in range(n):
            s.put(f"{i:08d}".encode(), str(i).encode())
        assert s.get(b"00000000") == b"0"
        assert s.get(f"{n-1:08d}".encode()) == str(n - 1).encode()
        assert s.get(f"{n//2:08d}".encode()) == str(n // 2).encode()


class TestLSMStore:
    def test_flush_and_read_from_sstable(self, tmp_path):
        s = LSMStore(directory=str(tmp_path / "lsm"))
        for i in range(100):
            s.put(f"k{i:03d}".encode(), str(i).encode())
        s.flush()
        assert s.num_tables >= 1
        assert s.get(b"k050") == b"50"
        s.close()

    def test_delete_shadows_flushed_value(self, tmp_path):
        s = LSMStore(directory=str(tmp_path / "lsm"))
        s.put(b"k", b"old")
        s.flush()
        s.delete(b"k")
        assert s.get(b"k") is None
        s.flush()
        assert s.get(b"k") is None
        s.close()

    def test_newest_version_wins_across_tables(self, tmp_path):
        s = LSMStore(directory=str(tmp_path / "lsm"))
        s.put(b"k", b"v1")
        s.flush()
        s.put(b"k", b"v2")
        s.flush()
        assert s.get(b"k") == b"v2"
        assert [v for k, v in s.items() if k == b"k"] == [b"v2"]
        s.close()

    def test_compaction_drops_tombstones_and_merges(self, tmp_path):
        s = LSMStore(directory=str(tmp_path / "lsm"), max_tables=2)
        for round_ in range(4):
            for i in range(10):
                s.put(f"r{round_}k{i}".encode(), b"v")
            s.flush()
        s.delete(b"r0k0")
        s.flush()
        s.compact()
        assert s.num_tables == 1
        assert s.get(b"r0k0") is None
        assert s.get(b"r3k9") == b"v"
        assert len(s) == 39
        s.close()

    def test_wal_recovery_unflushed_data(self, tmp_path):
        d = str(tmp_path / "lsm")
        s = LSMStore(directory=d)
        s.put(b"durable", b"yes")
        s.delete(b"durable2")
        s._wal.flush()
        # simulate crash: no flush/close
        s2 = LSMStore(directory=d)
        assert s2.get(b"durable") == b"yes"
        s2.close()
        s.close()

    def test_recovery_with_sstables_and_wal(self, tmp_path):
        d = str(tmp_path / "lsm")
        s = LSMStore(directory=d)
        s.put(b"flushed", b"1")
        s.flush()
        s.put(b"in-wal", b"2")
        s._wal.flush()
        s2 = LSMStore(directory=d)
        assert s2.get(b"flushed") == b"1"
        assert s2.get(b"in-wal") == b"2"
        s2.close()
        s.close()

    def test_memtable_limit_triggers_flush(self, tmp_path):
        s = LSMStore(directory=str(tmp_path / "lsm"), memtable_limit=1024)
        for i in range(100):
            s.put(f"key{i:05d}".encode(), b"x" * 64)
        assert s.num_tables >= 1
        assert s.get(b"key00000") == b"x" * 64
        s.close()

    def test_scan_merges_memtable_and_tables(self, tmp_path):
        s = LSMStore(directory=str(tmp_path / "lsm"))
        s.put(b"a", b"1")
        s.flush()
        s.put(b"b", b"2")  # in memtable
        got = dict(s.scan(b"a", b"c"))
        assert got == {b"a": b"1", b"b": b"2"}
        s.close()


def test_make_store_factory(tmp_path):
    assert isinstance(make_store("btree"), BTreeStore)
    assert isinstance(make_store("hash"), HashStore)
    s = make_store("lsm", directory=str(tmp_path / "x"))
    assert isinstance(s, LSMStore)
    s.close()
    with pytest.raises(ValueError):
        make_store("bogus")


class _DefaultWriteAt(HashStore):
    """The reference: a hash store running the ``KVStore.write_at`` default
    (``get`` + ``put``) instead of its one-frame override."""

    write_at = KVStore.write_at


#: (key, offset, data) in order: hits at the start, in the middle and flush
#: with the end, an empty write at the very end, a miss, a write one byte
#: past the end, one longer than the whole value, then a hit again
_WRITE_ATS = [
    (b"rec", 0, b"AB"), (b"rec", 4, b"xyz"), (b"rec", 8, b"!!"),
    (b"rec", 10, b""), (b"gone", 0, b"x"), (b"rec", 9, b"ab"),
    (b"short", 1, b"toolong"), (b"short", 0, b"Z"),
]


def _after_write_ats(cls, hook, tmp_path):
    """Everything a ``_WRITE_ATS`` run leaves on a fresh metered ``cls`` store."""
    wal = tmp_path / f"{cls.__name__}.wal"
    store = cls(meter=Meter(KVCostPolicy(CostModel())),
                wal_path=str(wal) if hook == "wal" else None)
    store.put(b"rec", b"0123456789")
    store.put(b"short", b"abc")
    tracer, registry = Tracer(), MetricsRegistry()
    store.meter.settle()  # spans and counts are emitted at settlement
    if hook == "trace":
        store.meter.trace = KVTraceSink(tracer, "fms0", None, 0.0)
    elif hook == "registry":
        store.meter.bind_registry(registry, "fms0.kv.")
    results = [store.write_at(key, off, data) for key, off, data in _WRITE_ATS]
    store.close()
    meter = store.meter
    return {
        "results": results,
        "store": list(store._data.items()),
        "wal": wal.read_bytes() if hook == "wal" else None,
        "op_counts": meter.op_counts,
        "byte_counts": meter.byte_counts,
        "total_us": meter.total_us.hex(),
        "spans": [(s.name, s.start_us, s.end_us, s.args) for s in tracer.spans],
        "counters": registry.snapshot()["counters"],
    }


class TestLeanWriteAt:
    """``HashStore.write_at`` does the read-modify-write in one frame; it
    must leave exactly what the ``KVStore.write_at`` default leaves."""

    @pytest.mark.parametrize("hook", ["none", "trace", "registry", "wal"])
    def test_same_as_the_default(self, hook, tmp_path):
        assert HashStore.write_at is not KVStore.write_at
        got = _after_write_ats(HashStore, hook, tmp_path)
        assert got == _after_write_ats(_DefaultWriteAt, hook, tmp_path)
        assert got["results"] == [True, True, True, True, False, False, False, True]
        assert got["store"] == [(b"rec", b"AB23xyz7!!"), (b"short", b"Zbc")]
        assert got["op_counts"] == {"put": 7, "get": 8}


# -- the lean B+-tree against the hash store and the KVStore defaults ---------------

#: > BRANCH**2 keys, inserted in a scrambled order (5 003 is prime), so the
#: base tree has split leaves *and* internal nodes: three levels deep
_BASE_KEYS = [b"k%05d" % (i * 7919 % 5003) for i in range(4400)]

_KEY = st.one_of(
    st.sampled_from(_BASE_KEYS),  # present (until deleted)
    st.binary(max_size=6).map(lambda b: b"k" + b),  # mostly missing, any leaf
    st.sampled_from([b"", b"\x00", b"k", b"zz", b"\xff\xff"]),  # the edges
)
_VALUE = st.binary(max_size=24)
_KV_OPS = st.lists(st.one_of(
    st.tuples(st.just("get"), _KEY),
    st.tuples(st.just("put"), _KEY, _VALUE),
    st.tuples(st.just("delete"), _KEY),
    st.tuples(st.just("append"), _KEY, _VALUE),
), max_size=60)


def _depth(store: BTreeStore) -> int:
    depth, node = 1, store._root
    while node.__class__ is _Internal:
        depth, node = depth + 1, node.children[0]
    return depth


def _after_ops(cls, hook, base, ops, wal_dir):
    """Everything running ``base`` puts then ``ops`` leaves on a fresh
    metered ``cls`` store: results, meter, hook output, WAL and contents
    (items read after the meter is captured: a scan charges too)."""
    wal = os.path.join(wal_dir, cls.__name__ + ".wal") if hook == "wal" else None
    store = cls(meter=Meter(KVCostPolicy(CostModel())), wal_path=wal)
    tracer, registry = Tracer(), MetricsRegistry()
    store.meter.settle()  # spans and counts are emitted at settlement
    if hook == "trace":
        store.meter.trace = KVTraceSink(tracer, "dms", None, 0.0)
    elif hook == "registry":
        store.meter.bind_registry(registry, "dms.kv.")
    for key in base:
        store.put(key, key)
    results = [getattr(store, op)(*args) for op, *args in ops]
    meter = store.meter
    out = {
        "results": results,
        "op_counts": dict(meter.op_counts),
        "byte_counts": dict(meter.byte_counts),
        "total_us": meter.total_us.hex(),
        "spans": [(s.name, s.start_us, s.end_us, s.args) for s in tracer.spans],
        "counters": registry.snapshot()["counters"],
        "len": len(store),
        "depth": _depth(store) if isinstance(store, BTreeStore) else None,
        "items": list(store.items()),
    }
    store.close()
    if wal is not None:
        with open(wal, "rb") as f:
            out["wal"] = f.read()
        replayed = cls(wal_path=wal)
        out["replayed"] = list(replayed.items())
        replayed.close()
    return out


class TestLeanBTree:
    """``BTreeStore`` descends inline, charges through ``_charge`` and has
    a one-frame ``append``; the model must not see the difference: against
    ``HashStore`` the same ops charge the same kinds and bytes in the same
    order, so every result, count and the virtual time are bit-equal."""

    @pytest.mark.parametrize("hook", ["none", "trace", "registry", "wal"])
    @settings(max_examples=15, deadline=None)
    @given(ops=_KV_OPS)
    def test_differential_vs_hash_store(self, hook, ops):
        with tempfile.TemporaryDirectory() as wal_dir:
            got = _after_ops(BTreeStore, hook, _BASE_KEYS, ops, wal_dir)
            want = _after_ops(HashStore, hook, _BASE_KEYS, ops, wal_dir)
        assert got.pop("depth") >= 3
        want.pop("depth")
        assert got.pop("items") == sorted(want.pop("items"))
        if hook == "wal":
            assert got.pop("replayed") == sorted(want.pop("replayed"))
        assert got == want

    def test_base_tree_splits_internal_nodes(self):
        s = BTreeStore()
        for key in _BASE_KEYS:
            s.put(key, key)
        assert len(_BASE_KEYS) > BRANCH * BRANCH
        assert _depth(s) == 3
        assert [k for k, _ in s.items()] == sorted(_BASE_KEYS)


class _DefaultAppend(BTreeStore):
    """The reference: a B+-tree running the ``KVStore.append`` default
    (the native price, then ``get`` + ``put`` unmetered) instead of its
    one-frame override."""

    append = KVStore.append


def _rmw_append(self, key: bytes, value: bytes) -> None:
    """A read-modify-write append, metered as one (``get`` + ``put`` of
    the whole new value): what ``LSMStore.append`` charges and does."""
    cur = self.get(key)
    self.put(key, value if cur is None else cur + value)


class _RMWAppend(BTreeStore):
    """A B+-tree priced as the LSM store prices an append."""

    append = _rmw_append


def _rmw_extra(base, ops) -> int:
    """Bytes a read-modify-write append charges beyond Kyoto Cabinet's:
    each append to a present key reads and rewrites the value it already
    holds, so ``get`` and ``put`` each carry that value's length once
    more.  Replays ``base`` puts (value = key) then ``ops`` on a dict."""
    model = {key: key for key in base}
    extra = 0
    for op, *args in ops:
        if op == "put":
            model[args[0]] = args[1]
        elif op == "delete":
            model.pop(args[0], None)
        elif op == "append":
            cur = model.get(args[0], b"")
            extra += len(cur)
            model[args[0]] = cur + args[1]
    return extra


#: in order: a missing key appended onto a full leaf (the base fills one to
#: BRANCH, so this insert splits it), a present key, an empty value onto
#: it, the empty key, a key holding b"", then more new and present keys
_APPENDS = ([("append", b"new", b"xy"), ("put", b"empty", b""),
             ("append", b"b010", b"+"), ("append", b"b010", b""),
             ("append", b"", b"root"), ("append", b"empty", b"e"),
             ("get", b"empty")]
            + [("append", b"b%03d+" % i, b"z") for i in range(0, BRANCH, 3)]
            + [("append", b"b%03d" % i, b"!") for i in range(0, BRANCH, 5)])


class TestLeanBTreeAppend:
    """``BTreeStore.append`` is Kyoto Cabinet's: it leaves what the
    ``KVStore.append`` default leaves (results, charges, contents) but
    logs append records; against the LSM store's read-modify-write the
    only difference is the bytes the existing values add to each ``get``
    and ``put``."""

    @pytest.mark.parametrize("hook", ["none", "trace", "registry", "wal"])
    def test_same_as_the_default(self, hook, tmp_path):
        assert BTreeStore.append is not KVStore.append
        base = [b"b%03d" % i for i in range(BRANCH)]
        got = _after_ops(BTreeStore, hook, base, _APPENDS, str(tmp_path))
        want = _after_ops(_DefaultAppend, hook, base, _APPENDS, str(tmp_path))
        if hook == "wal":
            # the override logs each append as its appended bytes alone;
            # the default logs the whole new value as a put
            records = list(WriteAheadLog.replay(str(tmp_path / "BTreeStore.wal")))
            appends = [tuple(args) for op, *args in _APPENDS if op == "append"]
            assert [(k, v) for op, k, v in records if op == OP_APPEND] == appends
            assert len(got.pop("wal")) < len(want.pop("wal"))
        assert got == want
        assert got["depth"] == 2  # the first append split the full root leaf
        assert got["results"][6] == b"e"
        assert dict(got["items"])[b"b010"] == b"b010+!"
        n = sum(op == "append" for op, *_ in _APPENDS)
        assert got["op_counts"] == {"put": len(base) + 1 + n, "get": n + 1}
        rmw = _after_ops(_RMWAppend, hook, base, _APPENDS, str(tmp_path))
        extra = _rmw_extra(base, _APPENDS)
        assert extra > 0
        assert rmw["items"] == got["items"] and rmw["op_counts"] == got["op_counts"]
        assert {op: rmw["byte_counts"][op] - got["byte_counts"][op]
                for op in ("get", "put")} == {"get": extra, "put": extra}


@pytest.mark.parametrize("kind", ["hash", "btree", "lsm"])
def test_small_values_run_over_10k_ops_per_second(kind, tmp_path):
    """Paper §2.1 on the host: 64-byte puts and gets clear a Python-level
    floor of 10 000 ops/s.  Host-dependent, so not a claim: the modeled
    costs are what the experiments use."""
    store = (LSMStore(directory=str(tmp_path / "lsm"), wal_enabled=False) if kind == "lsm"
             else {"hash": HashStore, "btree": BTreeStore}[kind]())
    keys = [f"key-{i:08d}".encode() for i in range(4000)]
    t0 = time.perf_counter()
    for k in keys:
        store.put(k, b"v" * 64)
    put_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    for k in keys:
        store.get(k)
    get_s = time.perf_counter() - t0
    store.close()
    assert len(keys) / put_s > 10_000
    assert len(keys) / get_s > 10_000


@pytest.mark.parametrize("kind", ["hash", "btree", "lsm"])
def test_len_charges_nothing(kind):
    """``len`` is introspection: it leaves the virtual time and the op
    counts as they were, on an LSM store with flushed tables too."""
    meter = Meter(KVCostPolicy(CostModel()))
    store = (LSMStore(meter=meter, wal_enabled=False, memtable_limit=512)
             if kind == "lsm" else {"hash": HashStore, "btree": BTreeStore}[kind](meter))
    for i in range(100):
        store.put(b"k%03d" % i, b"v" * 8)
    store.delete(b"k000")
    if kind == "lsm":
        assert store.num_tables >= 1 and store._mem
    before = meter.total_us, dict(meter.op_counts)
    assert len(store) == 99
    assert (meter.total_us, dict(meter.op_counts)) == before
    store.close()


def _host_us_per_append(cls, entries: int) -> float:
    """Host µs per append onto a key already holding ``entries`` 24-byte
    entries: the best of 7 windows of 300 appends (the least disturbed)."""
    store = cls()
    entry = b"x" * 24
    for _ in range(entries):
        store.append(b"E:dir", entry)
    best = float("inf")
    for _ in range(7):
        t0 = time.perf_counter()
        for _ in range(300):
            store.append(b"E:dir", entry)
        best = min(best, time.perf_counter() - t0)
    return best / 300 * 1e6


@pytest.mark.parametrize("cls", [HashStore, BTreeStore])
def test_append_host_cost_is_flat_in_the_value_size(cls):
    """A Kyoto Cabinet append copies the appended bytes, not the list: an
    append onto 40 K entries costs about what one onto 4 K does.  A
    read-modify-write append copies the whole value and reads ~10-100x."""
    small = _host_us_per_append(cls, 4_000)
    big = _host_us_per_append(cls, 40_000)
    assert big <= 3 * small, (small, big)


# -- the lean LSM store against the hash store and the KVStore defaults -------------

#: a small memtable and table cap: the base puts alone flush several
#: times and compact, so ops below meet SSTable values, tombstones in the
#: memtable that shadow them, and flushes / compactions between two ops
_LSM_LIMITS = {"memtable_limit": 256, "max_tables": 2}
_LSM_BASE = [b"k%05d" % (i * 7919 % 5003) for i in range(60)]
#: zero-cost maintenance charges only the LSM store makes
_MAINTENANCE = ("flush", "compaction")

_LSM_KEY = st.one_of(
    st.sampled_from(_LSM_BASE),  # present (until deleted), most of them flushed
    st.binary(max_size=4).map(lambda b: b"k" + b),  # mostly missing
    st.sampled_from([b"", b"\x00", b"zz"]),
)
_LSM_OPS = st.lists(st.one_of(
    st.tuples(st.just("get"), _LSM_KEY),
    st.tuples(st.just("put"), _LSM_KEY, _VALUE),
    st.tuples(st.just("delete"), _LSM_KEY),
    st.tuples(st.just("append"), _LSM_KEY, _VALUE),
), max_size=60)


class _KCMetered(HashStore):
    """The hash store metered as ``LSMStore`` is but for the append: a
    delete also charges the ``get`` that tells whether the key existed."""

    def delete(self, key: bytes) -> bool:
        self.meter.pending += (("delete", len(key)),)
        existed = self.get(key) is not None
        self._data.pop(key, None)
        return existed


class _LSMMetered(_KCMetered):
    """... and an append is the LSM store's read-modify-write."""

    append = _rmw_append


class _RMWAppendLSM(LSMStore):
    """The reference: an LSM store running a plain ``get`` + ``put``
    append instead of its one-frame override."""

    append = _rmw_append


def _after_lsm_ops(cls, hook, ops, directory):
    """Everything ``_LSM_BASE`` puts then ``ops`` leave on a fresh metered
    ``cls`` store; an LSM store under the ``wal`` hook logs to (and is then
    recovered from) ``directory``."""
    meter = Meter(KVCostPolicy(CostModel()))
    lsm = issubclass(cls, LSMStore)
    if not lsm:
        store = cls(meter=meter)
    elif hook == "wal":
        store = cls(directory=directory, meter=meter, **_LSM_LIMITS)
    else:
        store = cls(meter=meter, wal_enabled=False, **_LSM_LIMITS)
    tracer, registry = Tracer(), MetricsRegistry()
    store.meter.settle()  # spans and counts are emitted at settlement
    if hook == "trace":
        store.meter.trace = KVTraceSink(tracer, "mds0", None, 0.0)
    elif hook == "registry":
        store.meter.bind_registry(registry, "mds0.kv.")
    for key in _LSM_BASE:
        store.put(key, key)
    results = [getattr(store, op)(*args) for op, *args in ops]
    out = {
        "results": results,
        "op_counts": dict(meter.op_counts),
        "byte_counts": dict(meter.byte_counts),
        "total_us": meter.total_us.hex(),
        "spans": [(s.name, s.start_us, s.end_us, s.args) for s in tracer.spans],
        "counters": registry.snapshot()["counters"],
        "len": len(store),
        "items": sorted(store.items()),
        "tables": store.num_tables if lsm else None,
    }
    store.close()
    if lsm and hook == "wal":
        out["files"] = {}
        for name in sorted(os.listdir(directory)):
            with open(os.path.join(directory, name), "rb") as f:
                out["files"][name] = f.read()
        recovered = LSMStore(directory=directory)
        out["recovered"] = sorted(recovered.items())
        recovered.close()
    return out


def _without_maintenance(out: dict) -> dict:
    """``out`` minus the flush / compaction charges (each costs exactly
    0.0 µs, so the virtual time they leave is the hash store's)."""
    def keep(name: str) -> bool:
        return name.rpartition(".")[2] not in _MAINTENANCE

    out = dict(out)
    for field in ("op_counts", "byte_counts", "counters"):
        out[field] = {k: v for k, v in out[field].items() if keep(k)}
    out["spans"] = [s for s in out["spans"] if keep(s[0])]
    return out


class TestLeanLSM:
    """``LSMStore`` reads through one memtable ``lookup``, charges through
    ``_charge`` and has a one-frame read-modify-write ``append`` (LevelDB
    has no append).  Against ``HashStore`` metered as the LSM store meters
    a delete and an append, every result, count, byte, span and the
    virtual time are bit-equal, flushes and compactions aside; against an
    LSM store running a plain ``get`` + ``put`` append, everything is,
    flush points, WAL and SSTable bytes included.  Against the hash
    store's own (Kyoto Cabinet) append, the only difference is the bytes
    the existing values add to each ``get`` and ``put``."""

    @pytest.mark.parametrize("hook", ["none", "trace", "registry", "wal"])
    @settings(max_examples=15, deadline=None)
    @given(ops=_LSM_OPS)
    def test_differential_vs_hash_store(self, hook, ops):
        with tempfile.TemporaryDirectory() as tmp:
            got = _after_lsm_ops(LSMStore, hook, ops, os.path.join(tmp, "a"))
            default = _after_lsm_ops(_RMWAppendLSM, hook, ops,
                                     os.path.join(tmp, "b"))
        want = _after_lsm_ops(_LSMMetered, hook, ops, None)
        kc = _after_lsm_ops(_KCMetered, hook, ops, None)
        assert got == default
        assert got["op_counts"]["flush"] >= 5  # the base alone flushes
        assert got["op_counts"]["compaction"] >= 1
        assert got["tables"] >= 1
        if hook == "wal":
            assert got.pop("recovered") == want["items"]
            del got["files"]
        got = _without_maintenance(got)
        assert got.pop("tables") >= 1
        want.pop("tables")
        assert got == want
        extra = _rmw_extra(_LSM_BASE, ops)
        assert kc["items"] == want["items"] and kc["op_counts"] == want["op_counts"]
        assert kc["results"] == want["results"]
        assert {op: want["byte_counts"].get(op, 0) - kc["byte_counts"].get(op, 0)
                for op in ("get", "put")} == {"get": extra, "put": extra}

    def test_tombstone_shadows_a_flushed_value(self):
        store = LSMStore(wal_enabled=False, **_LSM_LIMITS)
        store.put(b"gone", b"old")
        store.flush()
        assert store.num_tables == 1 and len(store._mem) == 0
        assert store.delete(b"gone") is True
        # the memtable's tombstone hides the table's value from every read
        assert store.get(b"gone") is None
        store.append(b"gone", b"new")
        assert store.get(b"gone") == b"new"
        assert store.delete(b"missing") is False
        store.close()


class TestLSMDirectory:
    def test_wal_less_store_makes_no_directory_until_it_flushes(self, tmp_path,
                                                                monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        store = LSMStore(wal_enabled=False, memtable_limit=256)
        store.put(b"k", b"v")
        assert store.directory is None and os.listdir(tmp_path) == []
        for i in range(20):
            store.put(b"k%02d" % i, b"v" * 16)
        assert store.num_tables >= 1
        (made,) = os.listdir(tmp_path)
        assert made.startswith("lsm-") and store.directory == str(tmp_path / made)
        store.close()
        assert os.listdir(tmp_path) == []
        assert store.get(b"k05") == b"v" * 16  # tables stay readable

    def test_owned_wal_directory_removed_on_close(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        store = LSMStore()
        store.put(b"k", b"v")
        assert os.listdir(store.directory) == ["wal.log"]
        store.close()
        assert os.listdir(tmp_path) == []

    def test_caller_directory_kept_on_close(self, tmp_path):
        d = str(tmp_path / "lsm")
        store = LSMStore(directory=d, memtable_limit=64)
        for i in range(10):
            store.put(b"k%d" % i, b"v" * 8)
        store.close()
        assert "wal.log" in os.listdir(d)
        recovered = LSMStore(directory=d)
        assert recovered.get(b"k9") == b"v" * 8
        recovered.close()
