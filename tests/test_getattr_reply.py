"""The getattr reply contract: one positional tuple, FMS to ``StatResult``.

``FileMetadataServer.op_getattr`` and the lookup-cache node's
``op_getattr`` reply with the inode's fields in layout order:
``FILE_ACCESS.field_names + FILE_CONTENT.field_names``.  The references
below are the dict-based decode the reply replaced — ``FixedLayout.unpack``
of each stored part, merged — so every check compares against what the
keyword form gave, errors included.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import NoEntry, PermissionDenied
from repro.common.types import ROOT_CRED, Credentials, StatResult
from repro.core.fms import FileMetadataServer, fkey
from repro.core.lookupcache import LookupCacheServer
from repro.harness.registry import make_system
from repro.metadata.acl import may_access
from repro.metadata.layout import FILE_ACCESS, FILE_ATTRS, FILE_CONTENT, FILE_COUPLED

_f64 = st.floats(allow_nan=False)
_u32 = st.integers(0, 2**32 - 1)
_u64 = st.integers(0, 2**64 - 1)
#: one file inode's ten field values, in layout order
_inode = st.tuples(_f64, _u32, _u32, _u32, _f64, _f64, _u64, _u32, _u64, _u32)


def _parts(values):
    return FILE_ACCESS.pack_values(*values[:4]), FILE_CONTENT.pack_values(*values[4:])


def _dict_reply(a: bytes, c: bytes) -> dict:
    """The keyword reply: each part unpacked to a dict, then merged."""
    out = FILE_ACCESS.unpack(a)
    out.update(FILE_CONTENT.unpack(c))
    return out


def _fms_with(decoupled: bool, values, blob: bytes = b"") -> FileMetadataServer:
    """An FMS holding one file, ``(7, "f")``, whose stored fields are ``values``."""
    fms = FileMetadataServer(sid=1, decoupled=decoupled)
    key = fkey(7, "f")
    if decoupled:
        a, c = _parts(values)
        fms.store.put_pair(b"A:" + key, a, b"C:" + key, c)
    else:
        fms.store.put(b"F:" + key, FILE_COUPLED.pack_values(*values, blob))
    return fms


def _raised(call):
    """``(exception type, args)`` of what ``call()`` raises."""
    try:
        call()
    except Exception as exc:  # any type: the comparison is the point
        return type(exc), exc.args
    raise AssertionError("expected an exception")


class TestFmsReply:
    @given(_inode, st.binary(max_size=128))
    def test_reply_is_both_parts_in_field_order(self, values, blob):
        a, c = _parts(values)
        want = tuple(FILE_ACCESS.unpack(a).values()) + tuple(FILE_CONTENT.unpack(c).values())
        for decoupled in (True, False):
            got = _fms_with(decoupled, values, blob).op_getattr(7, "f")
            assert type(got) is tuple and got == want

    def test_coupled_read_keeps_its_deserialize_charge(self):
        values = (1.0, 0o100644, 3, 4, 2.0, 3.0, 4096, 4096, 99, 1)
        fms = _fms_with(False, values)
        fms.op_getattr(7, "f")
        assert fms.meter.count("deserialize") == 1

    @pytest.mark.parametrize("decoupled", [True, False], ids=["decoupled", "coupled"])
    def test_missing_entry(self, decoupled):
        fms = FileMetadataServer(sid=1, decoupled=decoupled)
        assert _raised(lambda: fms.op_getattr(7, "f")) == (NoEntry, NoEntry().args)

    @pytest.mark.parametrize("part, size", [("A:", 19), ("A:", 21), ("C:", 39),
                                            ("C:", 0), ("F:", 187), ("F:", 189)])
    def test_bad_length_raises_the_layout_check(self, part, size):
        """A stored part of the wrong length raises what ``unpack`` of it
        raised; with both parts wrong, the access part's error wins."""
        values = (1.0, 0o100644, 3, 4, 2.0, 3.0, 4096, 4096, 99, 1)
        fms = _fms_with(part != "F:", values)
        key = part.encode() + fkey(7, "f")
        fms.store._data[key] = bytes(size)
        layout = {"A:": FILE_ACCESS, "C:": FILE_CONTENT, "F:": FILE_COUPLED}[part]
        want = _raised(lambda: layout.unpack(bytes(size)))
        assert want[0] is ValueError
        assert _raised(lambda: fms.op_getattr(7, "f")) == want
        if part == "C:":
            fms.store._data[b"A:" + fkey(7, "f")] = bytes(3)
            assert _raised(lambda: fms.op_getattr(7, "f")) == _raised(
                lambda: FILE_ACCESS.unpack(bytes(3)))


def _cache_getattr_ref(value: bytes) -> dict:
    """The cache node's keyword reply: both halves of the cached value
    unpacked and merged."""
    return _dict_reply(value[:FILE_ACCESS.total_size], value[FILE_ACCESS.total_size:])


def _cache_open_ref(value: bytes, cred, want: int) -> dict:
    a, c = value[:FILE_ACCESS.total_size], value[FILE_ACCESS.total_size:]
    mode, uid, gid = FILE_ACCESS.perm(a)
    if not may_access(mode, uid, gid, cred, want):
        raise PermissionDenied("f")
    return {"uuid": FILE_CONTENT.read(c, "suuid"), "mode": mode,
            "size": FILE_CONTENT.read(c, "size")}


class TestLookupCacheReply:
    @given(_inode)
    def test_hit_is_the_fms_reply(self, values):
        a, c = _parts(values)
        cache = LookupCacheServer()
        assert cache.op_getattr("fms0", 7, "f") is None
        assert cache.apply_fill(("file", "fms0", 7, "f", a + c, 1.0))
        assert cache.op_getattr("fms0", 7, "f") == _fms_with(True, values).op_getattr(7, "f")
        cred = Credentials(uid=values[2], gid=values[3])
        value = a + c
        for who in (ROOT_CRED, cred, Credentials(uid=1, gid=1)):
            try:
                want = _cache_open_ref(value, who, 6)
            except PermissionDenied as exc:
                assert _raised(lambda: cache.op_open("fms0", 7, "f", who, 6)) == (
                    PermissionDenied, exc.args)
                continue
            assert cache.op_open("fms0", 7, "f", who, 6) == want

    def test_joined_codec_is_both_layouts(self):
        rng = random.Random(30)
        for _ in range(64):
            a = rng.randbytes(FILE_ACCESS.total_size)
            c = rng.randbytes(FILE_CONTENT.total_size)
            assert FILE_ATTRS.unpack(a + c) == FILE_ACCESS.values(a) + FILE_CONTENT.values(c)

    @pytest.mark.parametrize("a_len, c_len", [(20, 39), (20, 41), (19, 40), (3, 0), (0, 0)])
    def test_bad_length_raises_what_the_halves_raised(self, a_len, c_len):
        cache = LookupCacheServer()
        cache.apply_fill(("file", "fms0", 7, "f", bytes(a_len + c_len), 1.0))
        value = bytes(a_len + c_len)
        assert _raised(lambda: cache.op_getattr("fms0", 7, "f")) == _raised(
            lambda: _cache_getattr_ref(value))
        assert _raised(lambda: cache.op_open("fms0", 7, "f", ROOT_CRED, 4)) == _raised(
            lambda: _cache_open_ref(value, ROOT_CRED, 4))


def _stored(fs, name: str) -> tuple[bytes, bytes]:
    """The access and content parts of the only file called ``name``
    (read off the backing dicts: no meter charge, no virtual time)."""
    raw = name.encode()
    for fms in fs.fms:
        for key, value in fms.store._data.items():
            if key[:2] == b"A:" and key[10:] == raw:
                return value, fms.store._data[b"C:" + key[2:]]
    raise KeyError(name)


def _stat_ref(a: bytes, c: bytes) -> StatResult:
    """The keyword ``StatResult`` the clients built from the dict reply."""
    attrs = _dict_reply(a, c)
    return StatResult(
        st_mode=attrs["mode"], st_uid=attrs["uid"], st_gid=attrs["gid"],
        st_size=attrs["size"], st_ctime=attrs["ctime"], st_mtime=attrs["mtime"],
        st_atime=attrs["atime"], st_blksize=attrs["bsize"], st_uuid=attrs["suuid"],
    )


@pytest.mark.parametrize("system", ["locofs-c", "locofs-nc", "locofs-b", "locofs-a"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_client_reads_match_the_stored_inode(system, seed):
    """A seeded sequence of creates, chmods, chowns, truncates and unlinks,
    read back by ``stat_file``, ``open`` and ``access`` on the sync,
    batching and async clients (the lookup-cache tier's misses, fills and
    hits included): every read equals what the keyword reply gave for the
    stored parts at that moment."""
    rng = random.Random(seed)
    fs = make_system(system, 3, engine_kind="event")
    client = fs.client()
    client.mkdir("/d")
    names = [f"f{n}" for n in range(8)]
    live: list[str] = []
    reads = 0
    for _ in range(160):
        op = rng.choice(("create", "chmod", "chown", "truncate", "unlink",
                         "stat_file", "stat_file", "open", "access"))
        # every op is valid, so no deferred error can surface mid-read
        pool = [n for n in names if n not in live] if op == "create" else live
        if not pool:
            continue
        name = rng.choice(pool)
        path = f"/d/{name}"
        if op == "create":
            client.create(path, rng.choice((0o600, 0o644)))
            live.append(name)
        elif op == "chmod":
            client.chmod(path, rng.choice((0o600, 0o640, 0o755)))
        elif op == "chown":
            client.chown(path, rng.randrange(5), rng.randrange(5))
        elif op == "truncate":
            client.truncate(path, rng.randrange(1 << 20))
        elif op == "unlink":
            client.unlink(path)
            live.remove(name)
        elif op == "stat_file":
            assert client.stat_file(path) == _stat_ref(*_stored(fs, name))
            reads += 1
        elif op == "open":
            got = client.open(path, 4)  # first: it flushes a queued create
            ref = _stat_ref(*_stored(fs, name))
            assert got == {"uuid": ref.st_uuid, "mode": ref.st_mode,
                           "size": ref.st_size, "path": path}
            reads += 1
        else:
            assert client.access(path, 4) is True
    assert reads > 30
