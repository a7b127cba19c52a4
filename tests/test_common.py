"""Unit tests for the common utilities: paths, uuids, stats, errors, config."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common import pathutil
from repro.common.config import CacheConfig, ClusterConfig
from repro.common.errors import InvalidArgument
from repro.common.stats import Counters, LatencyRecorder, iops
from repro.common.types import (
    Credentials,
    S_IFDIR,
    S_IFREG,
    is_dir_mode,
    is_file_mode,
)
from repro.common.uuidgen import (
    ROOT_UUID,
    UuidAllocator,
    make_uuid,
    uuid_fid,
    uuid_sid,
)


class TestPathUtil:
    def test_normalize_basic(self):
        assert pathutil.normalize("/a/b") == "/a/b"
        assert pathutil.normalize("/a/b/") == "/a/b"
        assert pathutil.normalize("//a///b") == "/a/b"
        assert pathutil.normalize("/") == "/"

    @pytest.mark.parametrize("bad", ["", "relative", "a/b", "/a/./b", "/a/../b", "/a\x00b"])
    def test_normalize_rejects(self, bad):
        with pytest.raises(InvalidArgument):
            pathutil.normalize(bad)

    def test_name_too_long_rejected(self):
        with pytest.raises(InvalidArgument):
            pathutil.normalize("/" + "x" * 300)

    def test_split(self):
        assert pathutil.split("/a/b/c") == ("/a/b", "c")
        assert pathutil.split("/a") == ("/", "a")
        assert pathutil.split("/") == ("/", "")

    def test_join(self):
        assert pathutil.join("/", "a") == "/a"
        assert pathutil.join("/a", "b") == "/a/b"
        assert pathutil.join("/a/", "b") == "/a/b"
        assert pathutil.join("/a", "") == "/a"

    def test_components_and_depth(self):
        assert pathutil.components("/a/b/c") == ["a", "b", "c"]
        assert pathutil.components("/") == []

    def test_ancestors(self):
        assert pathutil.ancestors("/a/b/c") == ["/", "/a", "/a/b"]
        assert pathutil.ancestors("/a") == ["/"]
        assert pathutil.ancestors("/") == []

    def test_is_ancestor(self):
        assert pathutil.is_ancestor("/a", "/a/b")
        assert pathutil.is_ancestor("/", "/a")
        assert not pathutil.is_ancestor("/a", "/a")
        assert not pathutil.is_ancestor("/a", "/ab")  # no false prefix match
        assert not pathutil.is_ancestor("/a/b", "/a")

    def test_dir_key_prefix(self):
        assert pathutil.dir_key_prefix("/") == "/"
        assert pathutil.dir_key_prefix("/a") == "/a/"

    @given(st.lists(st.text(alphabet="abcXYZ09_-", min_size=1, max_size=8), min_size=1, max_size=6))
    def test_split_join_roundtrip(self, parts):
        path = "/" + "/".join(parts)
        parent, name = pathutil.split(path)
        assert pathutil.join(parent, name) == pathutil.normalize(path)


class TestUuid:
    def test_compose_decompose(self):
        u = make_uuid(5, 1234)
        assert uuid_sid(u) == 5
        assert uuid_fid(u) == 1234

    def test_bounds(self):
        with pytest.raises(ValueError):
            make_uuid(-1, 0)
        with pytest.raises(ValueError):
            make_uuid(1 << 16, 0)
        with pytest.raises(ValueError):
            make_uuid(0, 1 << 48)

    def test_allocator_monotone_and_distinct(self):
        a = UuidAllocator(sid=3)
        got = [a.allocate() for _ in range(100)]
        assert len(set(got)) == 100
        assert all(uuid_sid(u) == 3 for u in got)
        assert got == sorted(got)

    def test_allocator_never_yields_root(self):
        a = UuidAllocator(sid=0)
        assert a.allocate() != ROOT_UUID

    @given(st.integers(0, (1 << 16) - 1), st.integers(0, (1 << 48) - 1))
    def test_roundtrip_property(self, sid, fid):
        u = make_uuid(sid, fid)
        assert uuid_sid(u) == sid and uuid_fid(u) == fid


class TestStats:
    def test_latency_summary(self):
        rec = LatencyRecorder()
        for v in [1, 2, 3, 4, 100]:
            rec.record("op", v)
        s = rec.summary("op")
        assert s.count == 5
        assert s.mean == 22
        assert s.minimum == 1 and s.maximum == 100
        assert s.p50 == 3

    def test_empty_summary_is_nan(self):
        s = LatencyRecorder().summary("none")
        assert s.count == 0 and math.isnan(s.mean)

    def test_counters(self):
        c = Counters()
        c.inc("rpc")
        c.inc("rpc", 4)
        assert c.get("rpc") == 5
        assert c.get("absent") == 0

    def test_iops(self):
        assert iops(1000, 1_000_000) == 1000.0
        assert iops(10, 0) == 0.0


class TestTypesAndConfig:
    def test_mode_helpers(self):
        assert is_dir_mode(S_IFDIR | 0o755)
        assert not is_dir_mode(S_IFREG | 0o644)
        assert is_file_mode(S_IFREG | 0o644)

    def test_credentials_root(self):
        assert Credentials(0, 0).is_root
        assert not Credentials(1000, 1000).is_root

    def test_cluster_config_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_metadata_servers=0)
        with pytest.raises(ValueError):
            ClusterConfig(block_size=16)
        cfg = ClusterConfig(num_metadata_servers=4)
        assert cfg.cache.enabled

    def test_cache_config_defaults_match_paper(self):
        # paper §3.2.2: 30 s lease
        assert CacheConfig().lease_seconds == 30.0
