"""The two-RPC f-rename: the source exports first, the destination's
import replaces.

A cross-FMS f-rename is ``export_remove`` on the source FMS, then one
``import`` on the destination FMS that replaces a durable destination
(owner checked before anything mutates) and returns the replaced file's
``{"uuid", "size"}`` so the client deletes its data blocks.  Kind
resolution is file-first: the export's ``NoEntry`` falls through to the
d-rename.  A failed import puts the inode back on the source.
"""

import pytest

from repro.common.errors import Exists, IsADirectory, NoEntry, PermissionDenied
from repro.common.types import Credentials
from repro.core import fsck
from repro.core.fms import FileMetadataServer
from repro.harness import FS_SYSTEM_NAMES, make_system
from repro.metadata import dirent

from ring_names import name_placed

_USER_A = Credentials(1000, 1000)
_USER_B = Credentials(2000, 2000)


def _flush(client) -> None:
    """Drain a write-behind client's queues; a sync client has none."""
    flush = getattr(client, "flush", None)
    if flush is not None:
        flush()


def _target(client, src: str, same_fms: bool) -> str:
    """A name in ``/d`` whose FMS is (or is not) ``src``'s."""
    uuid = client.stat_dir("/d").st_uuid
    dst = name_placed(client.ring, uuid, src, same_fms)
    assert (client.ring.lookup_file(uuid, dst)
            == client.ring.lookup_file(uuid, src)) == same_fms
    return f"/d/{dst}"


def _served(fs) -> dict:
    return {n.name: n.requests_served for n in fs.cluster.nodes()}


def _delta(fs, before: dict) -> dict:
    return {k: v - before[k] for k, v in _served(fs).items() if v != before[k]}


def _exists(client, path: str) -> bool:
    try:
        client.stat_file(path)
    except NoEntry:
        return False
    return True


def _blocks_of(fs, uuid: int) -> int:
    prefix = uuid.to_bytes(8, "big")
    return sum(1 for obj in fs.object_servers
               for key, _ in obj.store.items() if key[:8] == prefix)


# -- a missing source mutates nothing ---------------------------------------------


def _missing_source_cases():
    for system in FS_SYSTEM_NAMES:
        if system.startswith("locofs"):
            for where in ("same-fms", "cross-fms"):
                yield pytest.param(system, where, id=f"{system}-{where}")
        else:
            yield pytest.param(system, None, id=system)


@pytest.mark.parametrize("system, where", _missing_source_cases())
def test_missing_source_keeps_the_destination(system, where):
    """``rename("/d/missing", dst)`` used to remove ``dst`` before the
    export found no source, on every LocoFS row (sync and deferred)."""
    fs = make_system(system, 2)
    client = fs.client()
    client.mkdir("/d")
    dst = "/d/dst" if where is None else _target(client, "missing", where == "same-fms")
    client.create(dst)
    client.write(dst, 0, b"kept")
    _flush(client)
    with pytest.raises(NoEntry) as err:
        client.rename("/d/missing", dst)
        _flush(client)
    assert err.value.path == "/d/missing"
    assert client.read(dst, 0, 4) == b"kept"


@pytest.mark.parametrize("system", FS_SYSTEM_NAMES)
def test_rename_onto_the_root_keeps_the_file(system):
    """The root has no name to import under: LocoFS exported the file and
    lost it to a ``ValueError`` from the dirent encoder."""
    fs = make_system(system, 2)
    client = fs.client()
    client.mkdir("/d")
    client.create("/d/f")
    with pytest.raises(IsADirectory):
        client.rename("/d/f", "/")
        _flush(client)
    assert _exists(client, "/d/f")


# -- the wire protocol, pinned on both engines ------------------------------------


def _cross_rename(system, engine_kind, over=False):
    """Rename ``/d/x`` to a name on another FMS; returns the per-server
    requests it cost, its virtual time, the deployment, the client, the
    destination and the (source, destination) FMSes."""
    fs = make_system(system, 4, engine_kind=engine_kind)
    client = fs.client()
    client.mkdir("/d")
    client.create("/d/x")
    uuid = client.stat_dir("/d").st_uuid
    name = name_placed(client.ring, uuid, "x", same_fms=False)
    homes = (client.ring.lookup_file(uuid, "x"), client.ring.lookup_file(uuid, name))
    dst = f"/d/{name}"
    if over:
        client.create(dst)
        client.write(dst, 0, b"z" * 5000)  # two blocks
    _flush(client)
    client.stat_file("/d/x")  # warm: lease cache, placement memo
    before, t0 = _served(fs), fs.engine.now
    client.rename("/d/x", dst)
    return _delta(fs, before), fs.engine.now - t0, fs, client, dst, homes


#: (system, over a destination) -> (requests per server beside the source
#: and destination FMSes' one each, virtual µs); the four-RPC protocol this
#: replaced (DMS kind probe, destination probe, remove when the destination
#: exists, export, import) took 4 / 5 requests and 970.732 / 982.664 µs on a
#: fresh destination, 9 / 10 and 1361.132 / 1373.064 µs over one with two
#: data blocks.  LocoFS-A's lookup-cache invalidate also carries the fill of
#: the warm-up ``stat``'s miss: its store put adds 2.704 µs (447.392 /
#: 651.088 before fills rode other requests).  Over a destination its two
#: blocks are dropped by one request to each server owning one (here obj0
#: and obj1), point deletes of their computed keys: 615.864 / 630.5 µs.
#: While every object server scanned its whole store for the file's uuid
#: prefix it took 4 requests and 639.156 / 653.792 µs at 128 virtual nodes
#: per ring, 632.662 / 647.298 at 512
_PINNED = {
    ("locofs-c", False): ({}, 435.46000000000004),
    ("locofs-a", False): ({"cache0": 1}, 450.096),
    ("locofs-c", True): ({"obj0": 1, "obj1": 1}, 615.864),
    ("locofs-a", True): ({"obj0": 1, "obj1": 1, "cache0": 1}, 630.4999999999998),
}


@pytest.mark.parametrize("engine_kind", ["direct", "event"])
@pytest.mark.parametrize("system, over", sorted(_PINNED))
def test_cross_fms_rename_is_two_rpcs(system, over, engine_kind):
    served, elapsed, fs, client, dst, (src_fms, dst_fms) = _cross_rename(
        system, engine_kind, over)
    assert src_fms != dst_fms
    others, took = _PINNED[system, over]
    assert (served, elapsed) == ({src_fms: 1, dst_fms: 1, **others}, took)
    assert not _exists(client, "/d/x") and _exists(client, dst)


@pytest.mark.parametrize("system", ["locofs-c", "locofs-a"])
@pytest.mark.parametrize("same_fms", [False, True], ids=["cross-fms", "same-fms"])
def test_rename_over_a_file_with_blocks_deletes_them(system, same_fms):
    fs = make_system(system, 4)
    client = fs.client()
    client.mkdir("/d")
    client.create("/d/x")
    client.write("/d/x", 0, b"moved")
    dst = _target(client, "x", same_fms)
    client.create(dst)
    client.write(dst, 0, b"z" * 5000)
    _flush(client)
    moved, replaced = client.stat_file("/d/x").st_uuid, client.stat_file(dst).st_uuid
    assert _blocks_of(fs, replaced) == 2
    client.rename("/d/x", dst)
    _flush(client)
    assert _blocks_of(fs, replaced) == 0
    assert client.stat_file(dst).st_uuid == moved
    assert client.read(dst, 0, 5) == b"moved"
    assert not _exists(client, "/d/x")
    assert sum(f.num_files_fast() for f in fs.fms) == sum(f.num_files() for f in fs.fms) == 1
    report = fsck.check(fs)
    assert report.clean, report.errors


@pytest.mark.parametrize("system", ["locofs-c", "locofs-a"])
@pytest.mark.parametrize("same_fms", [False, True], ids=["cross-fms", "same-fms"])
def test_rename_over_a_foreign_file_is_denied_and_keeps_both(system, same_fms):
    """The import checks the destination's owner before it mutates; the
    exported source goes back (across servers: a second, non-replacing
    import; on one server: inside the same request)."""
    fs = make_system(system, 4)
    root = fs.client()
    root.mkdir("/d", 0o777)
    _flush(root)
    a, b = fs.client(cred=_USER_A), fs.client(cred=_USER_B)
    a.create("/d/x")
    a.write("/d/x", 0, b"mine")
    dst = _target(a, "x", same_fms)
    b.create(dst)
    _flush(a)
    _flush(b)
    with pytest.raises(PermissionDenied):
        a.rename("/d/x", dst)
        _flush(a)
    assert root.read("/d/x", 0, 4) == b"mine"
    assert root.stat_file("/d/x").st_uid == _USER_A.uid
    assert root.stat_file(dst).st_uid == _USER_B.uid
    report = fsck.check(fs)
    assert report.clean, report.errors


# -- a directory through the file-first fallback ----------------------------------


#: system -> requests of ``rename("/d/sub", "/d/sub2")`` from a client that
#: has ``/d`` but not ``/d/sub`` cached, beside the one failed export on the
#: FMS a file ``/d/sub`` would live on: that export replaces the DMS kind
#: probe (``{"dms": 2}`` and ``{"dms": 2, "cache0": 1}`` before)
_D_RENAME = {
    "locofs-c": {"dms": 1},
    "locofs-a": {"dms": 1, "cache0": 1},
}


@pytest.mark.parametrize("engine_kind", ["direct", "event"])
@pytest.mark.parametrize("system", sorted(_D_RENAME))
def test_d_rename_falls_through_the_file_attempt(system, engine_kind):
    fs = make_system(system, 4, engine_kind=engine_kind)
    maker = fs.client()
    maker.mkdir("/d")
    maker.mkdir("/d/sub")
    maker.create("/d/sub/f")
    _flush(maker)
    uuid = maker.stat_dir("/d/sub").st_uuid
    client = fs.client()
    home = client.ring.lookup_file(client.stat_dir("/d").st_uuid, "sub")
    before = _served(fs)
    client.rename("/d/sub", "/d/sub2")
    assert _delta(fs, before) == {**_D_RENAME[system], home: 1}
    assert client.stat_dir("/d/sub2").st_uuid == uuid
    assert _exists(client, "/d/sub2/f")
    with pytest.raises(NoEntry):
        client.stat_dir("/d/sub")
    report = fsck.check(fs)
    assert report.clean, report.errors


# -- the FMS's import, both inode layouts ------------------------------------------


@pytest.mark.parametrize("decoupled", [True, False], ids=["decoupled", "coupled"])
class TestImport:
    DIR = 5

    def _fms(self, decoupled):
        fms = FileMetadataServer(sid=1, decoupled=decoupled)
        moving = fms.op_create(self.DIR, "src", 0o644, _USER_A, 1.0)
        fms.op_create(self.DIR, "dst", 0o644, _USER_B, 1.0)
        fms.op_write_meta(self.DIR, "dst", 5000, 2.0)
        return fms, moving, fms.op_export_remove(self.DIR, "src", _USER_A)

    @staticmethod
    def _state(fms):
        return (sorted(fms.store.items()), fms.num_files_fast())

    def test_replaces_and_returns_the_replaced_file(self, decoupled):
        fms, moving, inode = self._fms(decoupled)
        replaced_uuid = fms.op_getattr(self.DIR, "dst")[8]
        got = fms.op_import(self.DIR, "dst", inode["access"], inode["content"], _USER_B)
        assert got == {"uuid": replaced_uuid, "bsize": 4096, "size": 5000}
        assert fms.op_getattr(self.DIR, "dst")[8] == moving
        assert [(e.name, e.uuid) for e in dirent.iter_entries(fms.op_readdir(self.DIR))] \
            == [("dst", moving)]
        assert fms.num_files_fast() == fms.num_files() == 1

    def test_checks_the_owner_before_it_mutates(self, decoupled):
        fms, _, inode = self._fms(decoupled)
        before = self._state(fms)
        with pytest.raises(PermissionDenied):
            fms.op_import(self.DIR, "dst", inode["access"], inode["content"], _USER_A)
        assert self._state(fms) == before

    def test_without_cred_it_never_replaces(self, decoupled):
        fms, _, inode = self._fms(decoupled)
        before = self._state(fms)
        with pytest.raises(Exists):
            fms.op_import(self.DIR, "dst", inode["access"], inode["content"])
        assert self._state(fms) == before
        assert fms.op_import(self.DIR, "src", inode["access"], inode["content"]) is None
        assert fms.num_files_fast() == fms.num_files() == 2

