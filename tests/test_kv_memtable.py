"""Unit tests for the skip-list memtable."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kv.memtable import _MAX_LEVEL, _P, ABSENT, SkipListMemtable


def test_put_get_roundtrip():
    mt = SkipListMemtable()
    mt.put(b"a", b"1")
    mt.put(b"b", b"2")
    assert mt.get(b"a") == b"1"
    assert mt.get(b"b") == b"2"
    assert mt.get(b"c") is None


def test_overwrite_updates_value_not_count():
    mt = SkipListMemtable()
    mt.put(b"k", b"v1")
    mt.put(b"k", b"v2")
    assert mt.get(b"k") == b"v2"
    assert len(mt) == 1


def test_items_sorted_order():
    mt = SkipListMemtable()
    keys = [b"delta", b"alpha", b"echo", b"charlie", b"bravo"]
    for i, k in enumerate(keys):
        mt.put(k, str(i).encode())
    assert [k for k, _ in mt.items()] == sorted(keys)


def test_len_counts_distinct_keys():
    mt = SkipListMemtable()
    for i in range(100):
        mt.put(f"key{i:03d}".encode(), b"v")
    assert len(mt) == 100


def test_scan_half_open_interval():
    mt = SkipListMemtable()
    for c in b"abcdef":
        mt.put(bytes([c]), b"v")
    got = [k for k, _ in mt.scan(b"b", b"e")]
    assert got == [b"b", b"c", b"d"]


def test_scan_empty_range():
    mt = SkipListMemtable()
    mt.put(b"a", b"v")
    assert list(mt.scan(b"x", b"z")) == []


def test_remove_existing_and_missing():
    mt = SkipListMemtable()
    mt.put(b"a", b"v")
    assert mt.remove(b"a") is True
    assert mt.remove(b"a") is False
    assert mt.get(b"a") is None
    assert len(mt) == 0


def test_none_value_tombstone_support():
    mt = SkipListMemtable()
    mt.put(b"a", b"v")
    mt.put(b"a", None)
    # scan distinguishes tombstone (present, None) from absent
    assert list(mt.scan(b"a", b"b")) == [(b"a", None)]


def test_approx_bytes_grows_and_shrinks():
    mt = SkipListMemtable()
    before = mt.approx_bytes
    mt.put(b"key", b"x" * 100)
    grown = mt.approx_bytes
    assert grown > before
    mt.remove(b"key")
    assert mt.approx_bytes < grown


def test_large_population_sorted_iteration():
    mt = SkipListMemtable(seed=7)
    import random

    rng = random.Random(42)
    keys = [f"{rng.randrange(10**9):09d}".encode() for _ in range(2000)]
    for k in keys:
        mt.put(k, k)
    out = [k for k, _ in mt.items()]
    assert out == sorted(set(keys))


def test_lookup_tells_value_tombstone_and_absent_apart():
    mt = SkipListMemtable()
    mt.put(b"v", b"1")
    mt.put(b"t", b"x")
    mt.put(b"t", None)  # overwritten by a tombstone
    assert mt.lookup(b"v") == b"1"
    assert mt.lookup(b"t") is None
    assert mt.lookup(b"a") is ABSENT
    assert mt.get(b"t") is None and mt.get(b"a") is None
    mt.remove(b"v")
    assert mt.lookup(b"v") is ABSENT
    mt.put(b"v", b"")
    assert mt.lookup(b"v") == b""


_MT_KEY = st.binary(max_size=3)
_MT_OPS = st.lists(st.one_of(
    st.tuples(st.just("put"), _MT_KEY, st.binary(max_size=8)),
    st.tuples(st.just("put"), _MT_KEY, st.none()),  # tombstone
    st.tuples(st.just("remove"), _MT_KEY),
), max_size=80)


@given(_MT_OPS)
@settings(max_examples=60, deadline=None)
def test_index_and_skip_list_agree(ops):
    """After any put / overwrite / tombstone / remove stream the hash index
    and the ordered list hold the same entries, ``approx_bytes`` is the
    per-entry sum, and each node's level is the seeded draw it would get
    without the index (only a new key draws, in insertion order)."""
    mt = SkipListMemtable(seed=11)
    rng = random.Random(11)
    model: dict[bytes, bytes | None] = {}
    levels: dict[bytes, int] = {}
    for op, key, *value in ops:
        if op == "put":
            if key not in model:
                lvl = 1
                while lvl < _MAX_LEVEL and rng.random() < _P:
                    lvl += 1
                levels[key] = lvl
            model[key] = value[0]
            mt.put(key, value[0])
        else:
            assert mt.remove(key) is (model.pop(key, ABSENT) is not ABSENT)
            levels.pop(key, None)
    assert list(mt.items()) == sorted(model.items())
    assert sorted(mt._index) == sorted(model) and len(mt) == len(model)
    assert {k: len(n.forward) for k, n in mt._index.items()} == levels
    for key in list(model) + [b"\xff" * 4]:
        assert mt.lookup(key) == model.get(key, ABSENT)
    assert mt.approx_bytes == sum(len(k) + len(v or b"") + 32
                                  for k, v in model.items())
