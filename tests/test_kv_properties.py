"""Property-based tests: each store must behave exactly like a dict model."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.kv import BTreeStore, HashStore, LSMStore
from repro.kv.btree import prefix_upper_bound

keys = st.binary(min_size=1, max_size=24)
values = st.binary(max_size=64)

# op streams: (op, key, value)
ops = st.lists(
    st.tuples(st.sampled_from(["put", "delete", "get"]), keys, values),
    max_size=200,
)


def apply_ops(store, model, op_stream):
    for op, k, v in op_stream:
        if op == "put":
            store.put(k, v)
            model[k] = v
        elif op == "delete":
            assert store.delete(k) == (k in model)
            model.pop(k, None)
        else:
            assert store.get(k) == model.get(k)


@given(ops)
@settings(max_examples=60, deadline=None)
def test_btree_matches_dict_model(op_stream):
    store = BTreeStore()
    model: dict[bytes, bytes] = {}
    apply_ops(store, model, op_stream)
    assert dict(store.items()) == model
    assert len(store) == len(model)
    # ordered iteration invariant
    ks = [k for k, _ in store.items()]
    assert ks == sorted(ks)


@given(ops)
@settings(max_examples=60, deadline=None)
def test_hash_matches_dict_model(op_stream):
    store = HashStore()
    model: dict[bytes, bytes] = {}
    apply_ops(store, model, op_stream)
    assert dict(store.items()) == model
    assert len(store) == len(model)


@given(ops)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_lsm_matches_dict_model(op_stream):
    import shutil
    import tempfile

    directory = tempfile.mkdtemp(prefix="lsm-prop-")
    store = LSMStore(
        directory=directory,
        memtable_limit=512,  # force frequent flushes so sstables participate
        max_tables=3,
    )
    try:
        model: dict[bytes, bytes] = {}
        apply_ops(store, model, op_stream)
        assert dict(store.items()) == model
        ks = [k for k, _ in store.items()]
        assert ks == sorted(ks)
    finally:
        store.close()
        shutil.rmtree(directory, ignore_errors=True)


@given(st.lists(st.tuples(keys, values), max_size=80), keys, keys)
@settings(max_examples=60, deadline=None)
def test_btree_scan_matches_model_range(pairs, lo, hi):
    if lo > hi:
        lo, hi = hi, lo
    store = BTreeStore()
    model: dict[bytes, bytes] = {}
    for k, v in pairs:
        store.put(k, v)
        model[k] = v
    got = list(store.scan(lo, hi))
    want = sorted((k, v) for k, v in model.items() if lo <= k < hi)
    assert got == want


@given(st.binary(min_size=1, max_size=16), st.binary(max_size=16))
def test_prefix_upper_bound_property(prefix, suffix):
    ub = prefix_upper_bound(prefix)
    if ub is None:
        # all-0xff prefixes have no finite upper bound: any fixed cap would
        # wrongly exclude a longer all-0xff key
        assert prefix == b"\xff" * len(prefix)
    else:
        assert ub > prefix
        # every string with the prefix sorts below the bound
        assert prefix + suffix < ub


def test_prefix_upper_bound_all_ff_unbounded():
    # regression: the old fixed b"\xff" * 64 cap excluded longer keys
    assert prefix_upper_bound(b"\xff") is None
    assert prefix_upper_bound(b"\xff" * 80) is None
    long_key = b"\xff" * 70 + b"tail"
    store = BTreeStore()
    store.put(long_key, b"v")
    store.put(b"\x01", b"w")
    assert dict(store.prefix_scan(b"\xff" * 65)) == {long_key: b"v"}


@given(st.lists(st.tuples(keys, values), max_size=60), st.binary(min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_btree_prefix_scan_matches_filter(pairs, prefix):
    store = BTreeStore()
    model: dict[bytes, bytes] = {}
    for k, v in pairs:
        store.put(k, v)
        model[k] = v
    got = dict(store.prefix_scan(prefix))
    want = {k: v for k, v in model.items() if k.startswith(prefix)}
    assert got == want


@given(
    st.lists(st.tuples(keys, values), max_size=60),
    st.binary(min_size=1, max_size=4),
    st.binary(min_size=1, max_size=4),
)
@settings(max_examples=40, deadline=None)
def test_move_prefix_equivalence_btree_vs_hash(pairs, old, new):
    # moving a prefix must produce identical *contents* on both store kinds
    if old.startswith(new) or new.startswith(old):
        return  # overlapping prefixes make the rewrite ill-defined
    bt, hs = BTreeStore(), HashStore()
    for k, v in pairs:
        bt.put(k, v)
        hs.put(k, v)
    n1 = bt.move_prefix(old, new)
    n2 = hs.move_prefix(old, new)
    assert n1 == n2
    assert dict(bt.items()) == dict(hs.items())
