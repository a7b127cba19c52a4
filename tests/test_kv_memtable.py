"""The LSM store's memtable, through ``LSMStore``: a ``dict`` (``None`` a
tombstone) sorted only at flush and for scans.  Most tests put an older
version of each key in a flushed table first, so every read meets the
memtable over the tables below it."""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kv import LSMStore


def _over_a_table(**kwargs) -> LSMStore:
    """A WAL-less store holding ``a``..``f`` (value ``old``) in one
    flushed table and an empty memtable."""
    store = LSMStore(wal_enabled=False, **kwargs)
    for c in b"abcdef":
        store.put(bytes([c]), b"old")
    store.flush()
    assert store.num_tables == 1 and not store._mem
    return store


def test_put_get_roundtrip():
    store = _over_a_table()
    store.put(b"a", b"1")
    store.put(b"z", b"2")
    assert store.get(b"a") == b"1"
    assert store.get(b"z") == b"2"
    assert store.get(b"b") == b"old"  # not in the memtable: the table's
    assert store.get(b"y") is None
    store.close()


def test_overwrite_updates_value_not_count():
    store = _over_a_table()
    store.put(b"k", b"v1")
    store.put(b"k", b"v2")
    store.put(b"a", b"new")
    assert store.get(b"k") == b"v2" and store.get(b"a") == b"new"
    assert len(store) == 7
    assert [v for k, v in store.items() if k in (b"a", b"k")] == [b"new", b"v2"]
    store.close()


def test_items_sorted_order():
    store = _over_a_table()
    keys = [b"delta", b"alpha", b"echo", b"charlie", b"bravo"]
    for i, k in enumerate(keys):
        store.put(k, str(i).encode())
    assert [k for k, _ in store.items()] == sorted(keys + [bytes([c]) for c in b"abcdef"])
    store.close()


def test_len_counts_distinct_keys():
    store = _over_a_table()
    for i in range(100):
        store.put(f"key{i:03d}".encode(), b"v")
    for c in b"abc":  # a newer version of a tabled key counts once
        store.put(bytes([c]), b"v")
    assert len(store) == 106
    store.close()


def test_scan_half_open_interval():
    store = _over_a_table()
    for c in b"bcdxyz":
        store.put(bytes([c]), b"new")
    got = list(store.scan(b"b", b"e"))
    assert got == [(b"b", b"new"), (b"c", b"new"), (b"d", b"new")]
    store.close()


def test_scan_empty_range():
    store = _over_a_table()
    store.put(b"a", b"v")
    assert list(store.scan(b"x", b"z")) == []
    assert list(store.scan(b"c", b"c")) == []
    store.close()


def test_none_value_tombstone_support():
    store = _over_a_table()
    store.put(b"g", b"v")
    store.delete(b"g")
    store.delete(b"b")
    # a tombstone hides the memtable's and the table's older versions
    assert [k for k, _ in store.scan(b"a", b"h")] == [b"a", b"c", b"d", b"e", b"f"]
    store.close()


def test_large_population_sorted_iteration():
    store = LSMStore(wal_enabled=False, memtable_limit=4096, max_tables=3)
    rng = random.Random(42)
    keys = [f"{rng.randrange(10**9):09d}".encode() for _ in range(2000)]
    for k in keys:
        store.put(k, k)
    assert store.num_tables >= 1 and store._mem
    out = [k for k, _ in store.items()]
    assert out == sorted(set(keys))
    store.close()


def test_lookup_tells_value_tombstone_and_absent_apart():
    store = _over_a_table()
    store.put(b"v", b"1")
    store.delete(b"t")  # a tombstone over the table's value
    store.put(b"e", b"")  # an empty value is a live one
    assert store.get(b"v") == b"1"
    assert store.get(b"t") is None and store.get(b"w") is None
    assert store.get(b"a") == b"old"  # absent from the memtable: read through
    assert store.get(b"e") == b""
    assert b"e" in store and len(store) == 7
    store.delete(b"a")
    assert store.get(b"a") is None
    store.put(b"a", b"")
    assert store.get(b"a") == b""
    store.close()


_KEY = st.sampled_from([b"a", b"bb", b"ccc", b"d", b"ee"])
_VALUE = st.binary(max_size=40)
_OPS = st.lists(st.one_of(
    st.tuples(st.just("put"), _KEY, _VALUE),
    st.tuples(st.just("append"), _KEY, _VALUE),
    st.tuples(st.just("delete"), _KEY),
), max_size=80)


@given(_OPS)
@example([("put", b"a", b"x" * 40), ("put", b"a", b""), ("delete", b"bb"),
          ("put", b"a", b"y" * 40), ("append", b"a", b"z" * 30),
          ("put", b"ccc", b"")])
@settings(max_examples=80, deadline=None)
def test_flush_lands_where_the_byte_rule_reaches_the_limit(ops):
    """A memtable entry counts ``len(key) + len(value) + 32`` (a tombstone's
    value is empty) when its key is new and only the change in value
    length when it is overwritten; the store flushes on exactly the op
    whose count first reaches ``memtable_limit``."""
    limit = 160
    store = LSMStore(wal_enabled=False, memtable_limit=limit)
    live: dict[bytes, bytes] = {}
    mem: dict[bytes, bytes | None] = {}
    counted = flushes = 0
    for op, key, *value in ops:
        if op == "put":
            new = value[0]
        elif op == "append":
            new = live.get(key, b"") + value[0]
        else:
            new = None
        getattr(store, op)(key, *value)
        if key in mem:
            counted += len(new or b"") - len(mem[key] or b"")
        else:
            counted += len(key) + len(new or b"") + 32
        mem[key] = new
        if new is None:
            live.pop(key, None)
        else:
            live[key] = new
        if counted >= limit:
            flushes += 1
            mem, counted = {}, 0
        assert store.meter.count("flush") == flushes
    assert list(store.items()) == sorted(live.items())
    assert len(store) == len(live)
    store.close()
