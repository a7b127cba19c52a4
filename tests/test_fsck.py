"""fsck invariants: clean namespaces pass; injected corruption is caught;
random op sequences preserve every invariant (hypothesis)."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import CacheConfig, ClusterConfig
from repro.common.errors import FSError
from repro.core.fs import LocoFS
from repro.core.fsck import check
from repro.metadata.chash import DEFAULT_VNODES, file_placement_key


def make_fs(n=3, **kw):
    return LocoFS(ClusterConfig(num_metadata_servers=n, **kw))


class TestCleanNamespaces:
    def test_empty_fs_is_clean(self):
        report = check(make_fs())
        assert report.clean
        assert report.directories == 1  # root

    def test_populated_fs_is_clean(self):
        fs = make_fs()
        c = fs.client()
        c.mkdir("/a")
        c.mkdir("/a/b")
        for i in range(25):
            c.create(f"/a/f{i}")
            c.write(f"/a/f{i}", 0, b"x" * 100)
        report = check(fs)
        assert report.clean, report.errors
        assert report.directories == 3
        assert report.files == 25
        assert report.blocks == 25

    def test_clean_after_unlinks_and_rmdir(self):
        fs = make_fs()
        c = fs.client()
        c.mkdir("/d")
        for i in range(10):
            c.create(f"/d/f{i}")
            c.write(f"/d/f{i}", 0, b"y" * 5000)
        for i in range(10):
            c.unlink(f"/d/f{i}")
        c.rmdir("/d")
        report = check(fs)
        assert report.clean, report.errors
        assert report.files == 0
        assert report.blocks == 0

    def test_clean_after_renames(self):
        fs = make_fs(4)
        c = fs.client()
        c.mkdir("/src")
        c.mkdir("/src/deep")
        for i in range(15):
            c.create(f"/src/f{i}")
        c.write("/src/f0", 0, b"data" * 100)
        c.rename("/src/f0", "/src/g0")
        c.rename("/src", "/dst")
        report = check(fs)
        assert report.clean, report.errors

    def test_clean_in_coupled_mode(self):
        fs = make_fs(2, decoupled_file_metadata=False)
        c = fs.client()
        c.mkdir("/d")
        c.create("/d/f")
        c.rename("/d/f", "/d/g")
        report = check(fs)
        assert report.clean, report.errors


class TestCorruptionDetection:
    def test_detects_dangling_subdir_dirent(self):
        fs = make_fs()
        c = fs.client()
        c.mkdir("/a")
        # rip out the inode but leave the dirent
        fs.dms.store.delete(b"I:/a")
        del fs.dms._meta["/a"]
        report = check(fs)
        assert any("I3" in e for e in report.errors)

    def test_detects_missing_parent_link(self):
        fs = make_fs()
        c = fs.client()
        c.mkdir("/a")
        from repro.common.uuidgen import ROOT_UUID

        fs.dms.store.put(b"E:" + ROOT_UUID.to_bytes(8, "big"), b"")
        report = check(fs)
        assert any("I2" in e for e in report.errors)

    def test_detects_unpaired_file_parts(self):
        fs = make_fs(1)
        c = fs.client()
        c.create("/f")
        fms = fs.fms[0]
        doomed = [k for k, _ in fms.store.items() if k.startswith(b"C:")]
        fms.store.delete(doomed[0])
        report = check(fs)
        assert any("I4" in e for e in report.errors)

    def test_detects_dangling_file_dirent(self):
        fs = make_fs(1)
        c = fs.client()
        c.create("/f")
        fms = fs.fms[0]
        for k, _ in list(fms.store.items()):
            if k.startswith((b"A:", b"C:")):
                fms.store.delete(k)
        report = check(fs)
        assert any("I6" in e for e in report.errors)

    def test_detects_stale_mirror(self):
        fs = make_fs()
        c = fs.client()
        c.mkdir("/a")
        mode, uid, gid, uuid = fs.dms._meta["/a"]
        fs.dms._meta["/a"] = (0o777 | 0o040000, uid, gid, uuid)
        report = check(fs)
        assert any("I8" in e for e in report.errors)

    def test_detects_leaked_blocks(self):
        fs = make_fs()
        c = fs.client()
        c.create("/f")
        c.write("/f", 0, b"z" * 100)
        # remove the file metadata behind the object store's back
        for fms in fs.fms:
            for k, _ in list(fms.store.items()):
                fms.store.delete(k)
        report = check(fs)
        assert any("I9" in e for e in report.errors)

    def test_detects_block_past_size(self):
        """A block planted past a live file's size is one no unlink or
        truncate names (they compute a file's blocks from its size)."""
        fs = make_fs()
        c = fs.client()
        c.create("/f")
        c.write("/f", 0, b"z" * 100)
        uuid = c.open("/f")["uuid"]
        blk = 3
        for server in fs.placement.replicas_for(uuid, blk):
            fs.cluster[server].handler.op_put_block(uuid, blk, b"stale")
        report = check(fs)
        assert [e for e in report.errors if e.startswith("I11")] == [
            f"I11: block 3 of uuid {uuid} on {fs.placement.locate(uuid, blk)} "
            f"holds bytes 12288..12293, past the file's size 100"]

    def test_detects_block_running_past_size(self):
        """A size cut behind the object tier's back: the last kept block
        runs past the new size, and the next lies wholly past it."""
        fs = make_fs()
        c = fs.client()
        c.create("/f")
        c.write("/f", 0, b"z" * 8192)
        root = c.stat_dir("/").st_uuid
        fs.cluster[c._fms_for(root, "f")].handler.op_truncate(root, "f", 100, 0.0)
        i11 = [e for e in check(fs).errors if e.startswith("I11")]
        assert len(i11) == 2
        assert "block 0 " in i11[0] + i11[1] and "block 1 " in i11[0] + i11[1]
        # an unlink names only the blocks the size covers: block 1 leaks
        c.unlink("/f")
        assert [e[:2] for e in check(fs).errors] == ["I9"]

    def test_detects_one_file_under_two_names(self):
        """What a rename leaves if its import applies but the client never
        hears so and restores the source: one uuid, two keys."""
        fs = make_fs(4)
        c = fs.client()
        c.mkdir("/d")
        c.create("/d/a")
        uuid = c.stat_dir("/d").st_uuid
        home = fs.cluster[c._fms_for(uuid, "a")].handler
        inode = home.op_export_remove(uuid, "a", c.cred)
        home.op_import(uuid, "a", inode["access"], inode["content"])
        other = fs.cluster[c._fms_for(uuid, "b")].handler
        other.op_import(uuid, "b", inode["access"], inode["content"])
        report = check(fs)
        assert any("I10" in e for e in report.errors)

    def test_client_and_fsck_place_every_file_alike(self):
        """One placement rule: every file sits on the FMS its creating
        client's ring chose, and fsck's own ring (I7) says the same."""
        fs = make_fs(4)
        c = fs.client()
        placed = {}
        for d in range(3):
            c.mkdir(f"/d{d}")
            uuid = c.stat_dir(f"/d{d}").st_uuid
            for i in range(40):
                c.create(f"/d{d}/f{i}")
                placed[file_placement_key(uuid, f"f{i}")] = c._fms_for(uuid, f"f{i}")
        assert c.ring.vnodes == DEFAULT_VNODES
        assert len(set(placed.values())) == 4
        found = {key[2:]: name for name, fms in zip(fs.fms_names, fs.fms)
                 for key, _ in fms.store.items() if key.startswith(b"A:")}
        assert found == placed
        report = check(fs)
        assert report.clean, report.errors
        assert report.files == 120

    def test_detects_misplaced_file(self):
        fs = make_fs(4)
        c = fs.client()
        c.mkdir("/d")
        c.create("/d/f")
        # copy the file's records onto the wrong FMS
        src = None
        for fms in fs.fms:
            recs = [(k, v) for k, v in fms.store.items() if not k.startswith(b"E:")]
            if recs:
                src = (fms, recs)
        fms_src, recs = src
        wrong = next(f for f in fs.fms if f is not fms_src)
        for k, v in recs:
            fms_src.store.delete(k)
            wrong.store.put(k, v)
        report = check(fs)
        assert any("I7" in e or "I5" in e for e in report.errors)


# -- property test: random op sequences keep every invariant -----------------------

paths = st.sampled_from(["/a", "/b", "/a/x", "/a/y", "/b/z", "/a/x/deep"])
ops = st.lists(
    st.tuples(
        st.sampled_from(["mkdir", "create", "unlink", "rmdir", "rename", "write",
                         "chmod", "truncate"]),
        paths,
        paths,
    ),
    min_size=1,
    max_size=40,
)


@given(ops)
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_ops_preserve_invariants(op_stream):
    fs = LocoFS(ClusterConfig(num_metadata_servers=3,
                              cache=CacheConfig(enabled=False)))
    c = fs.client()
    for op, p1, p2 in op_stream:
        try:
            if op == "mkdir":
                c.mkdir(p1)
            elif op == "create":
                c.create(p1 + "/file")
            elif op == "unlink":
                c.unlink(p1 + "/file")
            elif op == "rmdir":
                c.rmdir(p1)
            elif op == "rename" and p1 != p2:
                c.rename(p1, p2)
            elif op == "write":
                c.write(p1 + "/file", 0, b"w" * 256)
            elif op == "chmod":
                c.chmod(p1, 0o700)
            elif op == "truncate":
                c.truncate(p1 + "/file", 64)
        except FSError:
            pass  # rejected ops must not corrupt state
    report = check(fs)
    assert report.clean, (op_stream, report.errors)
