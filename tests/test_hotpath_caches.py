"""Tests for the hot-path caches added by the performance overhaul.

Three properties matter: bounds are respected (no unbounded memory), memos
never change answers (invalid inputs still raise, valid answers equal the
uncached computation), and placement caches invalidate when ring
membership changes.
"""

import pytest

from repro.common import pathutil
from repro.common.errors import InvalidArgument
from repro.metadata import chash
from repro.metadata.chash import ConsistentHashRing, file_placement_key


# ---------------------------------------------------------------------------
# pathutil memoization
# ---------------------------------------------------------------------------


class TestPathMemo:
    def test_normalize_memo_is_bounded(self):
        pathutil.normalize.cache_clear()
        for i in range(pathutil._MEMO_SIZE + 500):
            pathutil.normalize(f"/bounded/n{i}")
        info = pathutil.normalize.cache_info()
        assert info.currsize <= pathutil._MEMO_SIZE

    def test_split_memo_is_bounded(self):
        pathutil.split.cache_clear()
        for i in range(pathutil._MEMO_SIZE + 500):
            pathutil.split(f"/bounded/s{i}")
        info = pathutil.split.cache_info()
        assert info.currsize <= pathutil._MEMO_SIZE

    @pytest.mark.parametrize(
        "bad",
        ["", "relative", "relative/path", "/a/../b", "/a/./b", "/..", "/.",
         "/a\x00b", "/" + "x" * 300],
    )
    def test_normalize_rejects_invalid_paths_every_time(self, bad):
        # lru_cache does not cache exceptions: the same invalid path must
        # raise on repeated calls, not be served from the memo
        for _ in range(3):
            with pytest.raises(InvalidArgument):
                pathutil.normalize(bad)

    @pytest.mark.parametrize(
        "path,expect",
        [
            ("/", "/"),
            ("/a", "/a"),
            ("/a/b/c", "/a/b/c"),
            ("/a//b/", "/a/b"),
            ("//", "/"),
            ("/a/", "/a"),
            ("/.hidden", "/.hidden"),
            ("/a/.rc.d/b", "/a/.rc.d/b"),
            ("/tail.", "/tail."),
        ],
    )
    def test_normalize_answers_unchanged(self, path, expect):
        assert pathutil.normalize(path) == expect

    def test_split_answers_unchanged(self):
        assert pathutil.split("/") == ("/", "")
        assert pathutil.split("/a") == ("/", "a")
        assert pathutil.split("/a/b/") == ("/a", "b")

    def test_memoized_results_consistent_with_each_other(self):
        # repeated calls return the same object/value
        a1 = pathutil.normalize("/memo/x")
        a2 = pathutil.normalize("/memo/x")
        assert a1 == a2
        s1 = pathutil.split("/memo/x")
        s2 = pathutil.split("/memo/x")
        assert s1 == s2


# ---------------------------------------------------------------------------
# consistent-hash ring caches
# ---------------------------------------------------------------------------


def _uncached_lookup(ring: ConsistentHashRing, key: bytes) -> str:
    """Reference lookup bypassing the per-ring lookup cache."""
    import bisect

    point = chash._hash64(key)
    idx = bisect.bisect_right(ring._points, point)
    if idx == len(ring._points):
        idx = 0
    return ring._ring[idx][1]


class TestRingCaches:
    def test_ring_matches_incremental_construction(self):
        # the memoized sorted() construction must equal what per-vnode
        # insort produced: check ring contents are sorted and complete
        ring = ConsistentHashRing(vnodes=16)
        for n in ("fms0", "fms1", "fms2"):
            ring.add_node(n)
        assert list(ring._ring) == sorted(ring._ring)
        assert len(ring._ring) == 3 * 16
        assert {n for _, n in ring._ring} == {"fms0", "fms1", "fms2"}

    def test_identical_membership_shares_construction(self):
        r1 = ConsistentHashRing(vnodes=16)
        r2 = ConsistentHashRing(vnodes=16)
        for n in ("a", "b"):
            r1.add_node(n)
        for n in ("b", "a"):  # different insertion order, same membership
            r2.add_node(n)
        assert r1._ring == r2._ring

    def test_lookup_cache_consistent_and_bounded(self):
        ring = ConsistentHashRing(vnodes=8)
        for n in ("s0", "s1", "s2", "s3"):
            ring.add_node(n)
        keys = [file_placement_key(7, f"f{i}") for i in range(200)]
        first = [ring.lookup(k) for k in keys]
        again = [ring.lookup(k) for k in keys]  # served from cache
        assert first == again
        assert first == [_uncached_lookup(ring, k) for k in keys]
        assert len(ring._lookup_cache) <= chash._LOOKUP_CACHE_MAX

    def test_version_bumps_on_membership_change(self):
        ring = ConsistentHashRing(vnodes=8)
        v0 = ring.version
        ring.add_node("s0")
        assert ring.version > v0
        v1 = ring.version
        ring.add_node("s1")
        assert ring.version > v1
        v2 = ring.version
        ring.remove_node("s0")
        assert ring.version > v2

    @pytest.mark.parametrize("nodes", [1, 3, 8])
    def test_lookup_file_is_lookup_of_the_placement_key(self, nodes):
        # the client's one-frame placement must answer exactly what the
        # keyed, memoized lookup does — before and after membership changes
        import random

        rng = random.Random(nodes)
        ring = ConsistentHashRing()
        for i in range(nodes):
            ring.add_node(f"fms{i}")
        names = ["a", "f000001", "é数🙂", "x" * 255] + [
            "".join(rng.choice("abcé数_") for _ in range(rng.randint(1, 12)))
            for _ in range(150)]

        def check():
            for name in names:
                d = rng.randrange(2**64)
                for dir_uuid in (0, 1, d):
                    want = ring.lookup(file_placement_key(dir_uuid, name))
                    assert ring.lookup_file(dir_uuid, name) == want
                    assert want == _uncached_lookup(
                        ring, file_placement_key(dir_uuid, name))

        check()
        # the wrap-around: a key hashing past the last point lands on the first
        past = next(d for d in range(1 << 20)
                    if chash._hash64(file_placement_key(d, "w")) > ring._points[-1])
        assert ring.lookup_file(past, "w") == ring._ring[0][1]
        assert ring.lookup(file_placement_key(past, "w")) == ring._ring[0][1]
        ring.add_node("fms-extra")
        check()
        ring.remove_node("fms0")
        check()
        ring.remove_node("fms-extra")
        if nodes > 1:
            check()

    def test_lookup_file_on_empty_ring_raises(self):
        with pytest.raises(RuntimeError):
            ConsistentHashRing().lookup_file(1, "f")

    def test_lookup_cache_invalidated_on_add_and_remove(self):
        ring = ConsistentHashRing(vnodes=64)
        ring.add_node("s0")
        keys = [file_placement_key(1, f"f{i}") for i in range(64)]
        assert all(ring.lookup(k) == "s0" for k in keys)
        ring.add_node("s1")
        after_add = [ring.lookup(k) for k in keys]
        assert after_add == [_uncached_lookup(ring, k) for k in keys]
        assert "s1" in set(after_add)  # some keys must move to the new node
        ring.remove_node("s1")
        assert all(ring.lookup(k) == "s0" for k in keys)


# ---------------------------------------------------------------------------
# client placement cache
# ---------------------------------------------------------------------------


class TestClientPlacementCache:
    def _client(self):
        from repro.common.config import ClusterConfig
        from repro.core.fs import LocoFS

        system = LocoFS(ClusterConfig(num_metadata_servers=4), engine_kind="direct")
        return system, system.client()

    def test_placement_cache_hits_match_ring(self):
        _, client = self._client()
        for i in range(50):
            name = f"f{i}"
            direct = client.ring.lookup(file_placement_key(3, name))
            assert client._fms_for(3, name) == direct
            assert client._fms_for(3, name) == direct  # cached answer

    def test_placement_cache_invalidated_on_ring_change(self):
        _, client = self._client()
        before = {i: client._fms_for(5, f"f{i}") for i in range(32)}
        victim = client.fms_names[-1]
        client.ring.remove_node(victim)
        after = {i: client._fms_for(5, f"f{i}") for i in range(32)}
        for i, fms in after.items():
            assert fms != victim
            assert fms == client.ring.lookup(file_placement_key(5, f"f{i}"))
        # keys that were on the removed node must have moved
        moved = [i for i in before if before[i] == victim]
        assert all(after[i] != before[i] for i in moved)

    def test_placement_cache_repopulates_after_add(self):
        _, client = self._client()
        client._fms_for(9, "x")
        client.ring.add_node("fms-extra")
        assert client._fms_for(9, "x") == client.ring.lookup(
            file_placement_key(9, "x")
        )

    def test_placement_cache_bounded(self):
        from repro.core import client as client_mod

        _, client = self._client()
        n = client_mod._PLACEMENT_CACHE_MAX + 100
        for i in range(0, n, 997):  # sparse sample is enough to check bound
            client._fms_for(i, "f")
        assert len(client._placement_cache) <= client_mod._PLACEMENT_CACHE_MAX

    def test_create_still_lands_on_ring_choice(self):
        # end-to-end: files created through the client land on the FMS the
        # (uncached) ring arithmetic picks
        system, client = self._client()
        client.mkdir("/d")
        info = system.engine.run(client._g_dir("/d"))
        for i in range(16):
            client.create(f"/d/f{i}")
            expected = _uncached_lookup(
                client.ring, file_placement_key(info["uuid"], f"f{i}")
            )
            assert client._fms_for(info["uuid"], f"f{i}") == expected
