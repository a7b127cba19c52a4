"""Tests for the shared client facade (fsbase) surface."""

import pytest

from repro.common.config import ClusterConfig
from repro.core.fs import LocoFS
from repro.fsbase import FSClientBase


@pytest.fixture
def client():
    return LocoFS(ClusterConfig(num_metadata_servers=2)).client()


class TestOpGenerator:
    def test_every_declared_op_has_a_generator(self, client):
        client.mkdir("/d")
        client.create("/d/f")
        args = {
            "mkdir": ("/d2",),
            "rmdir": ("/d2",),
            "readdir": ("/d",),
            "create": ("/d/f2",),
            "unlink": ("/d/f2",),
            "stat": ("/d/f",),
            "stat_dir": ("/d",),
            "stat_file": ("/d/f",),
            "open": ("/d/f", 4),
            "chmod": ("/d/f", 0o600),
            "chown": ("/d/f", 1, 1),
            "access": ("/d/f", 4),
            "truncate": ("/d/f", 10),
            "rename": ("/d/f", "/d/g"),
            "write": ("/d/g", 0, b"x"),
            "read": ("/d/g", 0, 1),
        }
        assert set(args) == set(FSClientBase.GENERATOR_OPS)
        for op in FSClientBase.GENERATOR_OPS:
            gen = client.op_generator(op, *args[op])
            client._engine.run(gen)  # must execute without error

    def test_unknown_op_rejected(self, client):
        with pytest.raises(ValueError):
            client.op_generator("fsync")

    def test_now_properties(self, client):
        client.mkdir("/t")
        assert client.now_us > 0
        assert client.now_s == pytest.approx(client.now_us / 1e6)


class TestPublicWrappers:
    def test_write_returns_length(self, client):
        client.create("/f")
        assert client.write("/f", 0, b"hello") == 5

    def test_open_returns_handle_dict(self, client):
        client.create("/f")
        h = client.open("/f")
        assert h["path"] == "/f"
        assert "uuid" in h and "size" in h

    def test_base_class_is_abstract(self):
        # the base defines no ``_g_<op>``: each system supplies its own
        base = FSClientBase(engine=None)
        with pytest.raises(AttributeError):
            base.op_raw("mkdir", "/x", 0o755)
