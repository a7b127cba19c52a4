"""A deployment builds in time linear in its clients and servers.

Every client builds its own consistent-hash ring over the same server
names, and every server node binds its handler's ``op_<name>`` methods.
Both were once paid per client / per node in full: a ring copied and
re-sorted per added server, and a ``dir()`` walk per node.  Now a ring
with a known membership is one memo probe, and a handler class's op names
are computed once.  These tests hold both to the from-scratch answers,
and pin the call counts that make set-up cost flat in the server count.
"""

import bisect
import cProfile
import functools
import hashlib
import pstats

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness import SYSTEM_NAMES, make_system
from repro.metadata import chash
from repro.metadata.chash import ConsistentHashRing, file_placement_key
from repro.sim.cluster import Cluster, _OpTable
from repro.sim.costmodel import CostModel


# -- the ring against a from-scratch reference ---------------------------------------


def _point(data: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


@functools.cache
def _ref_points(node: str, vnodes: int) -> tuple[int, ...]:
    return tuple(_point(f"{node}#{v}".encode()) for v in range(vnodes))


def _reference(nodes: set[str], vnodes: int) -> list[tuple[int, str]]:
    """The ring of ``nodes`` built from nothing: every virtual point,
    hashed here (not by the ring's memo), sorted."""
    return sorted((p, n) for n in nodes for p in _ref_points(n, vnodes))


def _ref_lookup_n(points: list[int], owners: list[str], key: bytes, n: int) -> list[str]:
    idx = bisect.bisect_right(points, _point(key))
    out: list[str] = []
    for step in range(len(owners)):
        name = owners[(idx + step) % len(owners)]
        if name not in out:
            out.append(name)
            if len(out) == n:
                break
    return out


_KEYS = [f"key{i}".encode() for i in range(24)]
_FILES = [(d, f"f{i}") for d in (1, 7) for i in range(12)]


def _assert_matches_reference(ring: ConsistentHashRing, nodes: set[str]) -> None:
    ref = _reference(nodes, ring.vnodes)
    points, owners = [p for p, _ in ref], [n for _, n in ref]
    assert ring._points == tuple(points)
    assert ring._owners == tuple(owners)
    assert ring.nodes == nodes
    if not nodes:
        with pytest.raises(RuntimeError):
            ring.lookup(b"k")
        return
    for key in _KEYS:
        assert ring.lookup(key) == _ref_lookup_n(points, owners, key, 1)[0]
        for n in (1, 2, 3):
            assert ring.lookup_n(key, n) == _ref_lookup_n(points, owners, key, n)
    for dir_uuid, name in _FILES:
        key = file_placement_key(dir_uuid, name)
        assert ring.lookup_file(dir_uuid, name) == _ref_lookup_n(points, owners, key, 1)[0]


_NAMES = st.sampled_from(["fms0", "fms1", "fms2", "fms3", "fms4", "dms"])
_STEP = st.one_of(
    st.tuples(st.just("add"), _NAMES),
    st.tuples(st.just("bulk"), st.lists(_NAMES, max_size=4)),
)


class TestRingBuild:
    """Add / remove / bulk-build sequences, checked after every step
    against the ring built from scratch, at the default virtual-node count
    too; a tiny memo bound makes the LRU evict in nearly every example."""

    @settings(max_examples=150, deadline=None)
    @given(initial=st.lists(_NAMES, max_size=4, unique=True),
           steps=st.lists(_STEP, max_size=12),
           vnodes=st.sampled_from([1, 3, 16, chash.DEFAULT_VNODES]))
    def test_sequence_matches_from_scratch_ring(self, initial, steps, vnodes):
        saved_max = chash._RING_MEMO_MAX
        chash._RING_MEMO_MAX = 3
        try:
            ring = ConsistentHashRing(vnodes=vnodes, nodes=initial)
            nodes = set(initial)
            assert ring.version == (1 if initial else 0)
            _assert_matches_reference(ring, nodes)
            for kind, arg in steps:
                before = (ring._points, ring._owners, ring.nodes, ring.version)
                if kind == "add":
                    ok = arg not in nodes
                    change = {arg}
                    arg = [arg]
                else:
                    ok = len(set(arg)) == len(arg) and not nodes & set(arg)
                    change = set(arg)
                if not ok:
                    # a duplicate (also one inside the bulk list):
                    # ValueError, and the ring as it was
                    with pytest.raises(ValueError):
                        ring.add_nodes(arg)
                    assert (ring._points, ring._owners, ring.nodes, ring.version) == before
                    continue
                ring.add_nodes(arg)
                nodes |= change
                # one bump per membership change; an empty bulk is none
                assert ring.version == before[3] + (1 if change else 0)
                _assert_matches_reference(ring, nodes)
                assert len(chash._RING_MEMO) <= chash._RING_MEMO_MAX
        finally:
            chash._RING_MEMO_MAX = saved_max

    def test_bulk_build_equals_one_by_one(self):
        names = [f"fms{i}" for i in range(16)]
        one_by_one = ConsistentHashRing(vnodes=8)
        for n in names:
            one_by_one.add_nodes([n])
        bulk = ConsistentHashRing(vnodes=8, nodes=reversed(names))
        assert bulk._owners is one_by_one._owners  # one memo entry, shared
        assert bulk.version == 1

    def test_duplicate_in_bulk_list_raises(self):
        with pytest.raises(ValueError, match="fms1"):
            ConsistentHashRing(nodes=["fms0", "fms1", "fms1"])
        ring = ConsistentHashRing(nodes=["fms0"])
        with pytest.raises(ValueError, match="fms0"):
            ring.add_nodes(["fms2", "fms0"])
        assert ring.nodes == {"fms0"} and ring.version == 1

    def test_one_clients_membership_change_leaves_others_alone(self):
        fs = make_system("locofs-c", 4)
        a, b = fs.client(), fs.client()
        assert a.ring._owners is b.ring._owners  # shared immutable storage
        want = {k: b.ring.lookup(k) for k in _KEYS}
        version = b.ring.version
        a.ring.add_nodes(["fms-extra"])
        assert b.ring.nodes == {"fms0", "fms1", "fms2", "fms3"}
        assert b.ring.version == version
        assert {k: b.ring.lookup(k) for k in _KEYS} == want
        assert "fms-extra" in a.ring.nodes


# -- op tables ---------------------------------------------------------------------


def _dir_table(handler) -> dict:
    """The table as a ``dir()`` walk of the handler builds it."""
    return {n[3:]: getattr(handler, n) for n in dir(handler) if n.startswith("op_")}


class TestOpTable:
    @pytest.mark.parametrize("system", SYSTEM_NAMES)
    def test_per_class_table_equals_dir_table(self, system):
        fs = make_system(system, 2)
        nodes = fs.cluster.nodes()
        assert nodes
        for node in nodes:
            assert dict(node._ops) == _dir_table(node.handler), node.name

    def test_ops_added_and_patched_after_registration(self, monkeypatch):
        class Handler:
            def op_a(self):
                return "a"

        cluster = Cluster(CostModel())
        first = cluster.add("s0", Handler())
        assert set(first._ops) == {"a"}
        # an op added to the class after its names were computed
        monkeypatch.setattr(Handler, "op_b", lambda self: "b", raising=False)
        assert first._ops["b"]() == "b"
        second = cluster.add("s1", Handler())
        assert second._ops["b"]() == "b"
        # a method patched onto the class binds on nodes built later
        monkeypatch.setattr(Handler, "op_a", lambda self: "patched")
        assert cluster.add("s2", Handler())._ops["a"]() == "patched"

    def test_op_deleted_after_its_names_were_computed(self, monkeypatch):
        class Handler:
            def op_a(self):
                return "a"

            def op_b(self):
                return "b"

        assert set(_OpTable("s0", Handler())) == {"a", "b"}
        monkeypatch.delattr(Handler, "op_b")
        table = _OpTable("s1", Handler())
        assert set(table) == {"a"}
        with pytest.raises(AttributeError, match="no op 'b'"):
            table["b"]


# -- exact set-up call counts --------------------------------------------------------


def _calls(fn) -> int:
    prof = cProfile.Profile()
    prof.runcall(fn)
    return pstats.Stats(prof).total_calls


@pytest.mark.usefixtures("quiet_gc")
class TestSetupWorkCount:
    def test_client_cost_is_flat_in_the_server_count(self):
        """CPython 3.10–3.12 count 14: ``fs.client``, the client's and
        its bases' constructors, the lease cache's, the ring's ``__init__`` /
        ``add_nodes`` / ``_rebuild`` (a memo hit), two ``len``, the memo
        ``pop`` and the lookup cache's ``clear``, a ``getattr`` and the
        profiler's ``disable``.  A ring built one node at a time
        cost 16 / 72 / 136 at 1 / 8 / 16 FMS."""
        counts = []
        for servers in (1, 8, 16):
            fs = make_system("locofs-c", servers)
            fs.client()  # warm: the membership's memo entry
            counts.append(_calls(fs.client))
        assert counts[0] == counts[1] == counts[2]
        assert counts[0] <= 14

    def test_make_system_exact_call_count(self):
        """``make_system("locofs-c", 16)`` with its memos warm: CPython
        3.11.7 counts 808 (3.12.1: 807, 3.10.13: 828).  A ``dir()`` walk
        per node and ring copies made it 2 817."""
        make_system("locofs-c", 16)
        assert _calls(lambda: make_system("locofs-c", 16)) <= 828
