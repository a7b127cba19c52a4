"""Tests for metadata structures: layouts, dirents, ACLs, ring, leases."""

import cProfile
import pstats
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import Exists
from repro.common.types import S_IFREG, Credentials, DirEntry, FileType
from repro.common.uuidgen import UuidAllocator, uuid_fid
from repro.core import dms as dms_mod
from repro.core import fms as fms_mod
from repro.core.dms import DirectoryMetadataServer
from repro.core.fms import FileMetadataServer, fkey
from repro.kv import HashStore, KVStore, Meter
from repro.metadata import acl, chash, dirent
from repro.metadata.chash import ConsistentHashRing, file_placement_key
from repro.metadata.layout import (
    DIR_INODE,
    FILE_ACCESS,
    FILE_ATTRS,
    FILE_CONTENT,
    FILE_COUPLED,
    FixedLayout,
    joined,
)
from repro.metadata.lease import LeaseCache
from repro.sim.costmodel import CostModel, KVCostPolicy


#: sample values per struct code, edges included
_FIELD_VALUES = {
    "d": [0.0, -0.0, 1.5, -2.25e-300, 1e300, float("inf")],
    "I": [0, 1, 0o100644, 0o107777, 2**32 - 1],
    "Q": [0, 1, 4096, 2**40 + 7, 2**64 - 1],
    "128s": [b"", b"x", b"y" * 128],
}

_ALL_LAYOUTS = [DIR_INODE, FILE_ACCESS, FILE_CONTENT, FILE_COUPLED]


class TestPrecomputedFieldCodecs:
    """``FixedLayout.field`` hands servers a field's offset and bound
    codec once, at import; each must be byte-for-byte ``encode_field`` /
    ``read``, and a read keeps ``read``'s length check."""

    @pytest.mark.parametrize("layout", _ALL_LAYOUTS, ids=lambda lay: lay.name)
    def test_every_field_is_encode_field_and_read(self, layout):
        for name in layout.field_names:
            f = layout.field(name)
            assert (f.offset, f.size) == (layout.offset(name), layout.size(name))
            for value in _FIELD_VALUES[f.fmt]:
                raw = f.pack(value)
                assert raw == layout.encode_field(name, value)
                buf = layout.write(layout.pack(), name, value)
                assert buf[f.offset:f.offset + f.size] == raw
                assert f.unpack_from(buf, f.offset) == (layout.read(buf, name),)

    @pytest.mark.parametrize("layout", _ALL_LAYOUTS, ids=lambda lay: lay.name)
    def test_check_raises_reads_error(self, layout):
        for bad in (b"", bytes(layout.total_size - 1), bytes(layout.total_size + 1)):
            with pytest.raises(ValueError) as by_read:
                layout.read(bad, layout.field_names[-1])
            with pytest.raises(ValueError) as by_check:
                layout.check(bad)
            assert str(by_check.value) == str(by_read.value)
        layout.check(layout.pack())

    def test_server_constants_are_the_layout_fields(self):
        for layout, names, prefix, module in (
                (FILE_ACCESS, ("ctime", "mode", "uid", "gid"), "_A_", fms_mod),
                (FILE_CONTENT, ("mtime", "atime", "size", "suuid"), "_C_", fms_mod),
                (DIR_INODE, ("ctime", "mode", "uid", "gid"), "_D_", dms_mod)):
            for name in names:
                assert getattr(module, prefix + name.upper()) is layout.field(name)
        assert fms_mod._C_LEN == FILE_CONTENT.total_size
        assert dms_mod._D_LEN == DIR_INODE.total_size

    def test_fms_in_place_writes_store_the_packed_record(self):
        fms = FileMetadataServer(sid=1)
        cred = Credentials(0, 0)
        fms.op_create(9, "f", 0o100644, cred, 1.0)
        fms.op_setattr(9, "f", cred, 2.5, mode=0o600, uid=7, gid=8)
        assert fms.op_truncate(9, "f", 4096, 3.5) == {
            "uuid": FILE_CONTENT.read(fms.store.get(b"C:" + fkey(9, "f")), "suuid"),
            "bsize": 4096, "size": 0}
        fms.op_write_meta(9, "f", 8192, 4.5)
        fms.op_read_meta(9, "f", 5.5)
        a = fms.store.get(b"A:" + fkey(9, "f"))
        c = fms.store.get(b"C:" + fkey(9, "f"))
        assert a == FILE_ACCESS.pack(ctime=2.5, mode=0o100600, uid=7, gid=8)
        assert FILE_CONTENT.unpack(c) == {"mtime": 4.5, "atime": 5.5, "size": 8192,
                                          "bsize": 4096, "suuid": FILE_CONTENT.read(c, "suuid"),
                                          "sid": 1}
        assert fms.op_remove(9, "f", cred) == {"uuid": FILE_CONTENT.read(c, "suuid"),
                                               "bsize": 4096, "size": 8192}

    def test_dms_in_place_writes_store_the_packed_record(self):
        dms = DirectoryMetadataServer()
        root = Credentials(0, 0)
        uuid = dms.op_mkdir("/a", 0o755, root, 1.0)
        dms.op_setattr("/a", root, 2.5, mode=0o700, uid=7, gid=8)
        buf = dms.store.get(b"I:/a")
        assert buf == DIR_INODE.pack(ctime=2.5, mode=0o040700, uid=7, gid=8, uuid=uuid)
        assert dms.op_lookup("/a", root)["ctime"] == 2.5

    def test_hot_reads_keep_the_length_check(self):
        fms = FileMetadataServer(sid=1)
        cred = Credentials(0, 0)
        fms.op_create(9, "f", 0o100644, cred, 1.0)
        ckey = b"C:" + fkey(9, "f")
        fms.store.put(ckey, fms.store.get(ckey)[:-1])
        with pytest.raises(ValueError, match="file_content: buffer is 39 bytes, expected 40"):
            fms.op_open(9, "f", cred, 4)
        with pytest.raises(ValueError, match="file_content: buffer is 39 bytes, expected 40"):
            fms.op_remove(9, "f", cred)
        dms = DirectoryMetadataServer()
        dms.op_mkdir("/a", 0o755, cred, 1.0)
        dms.store.put(b"I:/a", dms.store.get(b"I:/a") + b"\0")
        with pytest.raises(ValueError, match="dir_inode: buffer is 257 bytes"):
            dms.op_lookup("/a", cred)


class TestFixedLayout:
    def test_paper_field_sets_match_table1(self):
        assert DIR_INODE.field_names == ["ctime", "mode", "uid", "gid", "uuid"]
        assert FILE_ACCESS.field_names == ["ctime", "mode", "uid", "gid"]
        assert FILE_CONTENT.field_names == ["mtime", "atime", "size", "bsize", "suuid", "sid"]

    def test_dir_inode_is_256_bytes(self):
        # paper §3.2.2 allocates 256 bytes per d-inode
        assert DIR_INODE.total_size == 256
        assert len(DIR_INODE.pack()) == 256

    def test_access_part_much_smaller_than_coupled(self):
        # the whole point of decoupling: the per-op value is small
        assert FILE_ACCESS.total_size < FILE_COUPLED.total_size / 4

    def test_pack_unpack_roundtrip(self):
        buf = FILE_CONTENT.pack(mtime=1.5, atime=2.5, size=4096, bsize=4096, suuid=77, sid=3)
        got = FILE_CONTENT.unpack(buf)
        assert got == {
            "mtime": 1.5,
            "atime": 2.5,
            "size": 4096,
            "bsize": 4096,
            "suuid": 77,
            "sid": 3,
        }

    def test_field_read_write_in_place(self):
        buf = FILE_ACCESS.pack(ctime=1.0, mode=0o644, uid=10, gid=20)
        buf2 = FILE_ACCESS.write(buf, "mode", 0o600)
        assert FILE_ACCESS.read(buf2, "mode") == 0o600
        assert FILE_ACCESS.read(buf2, "uid") == 10  # neighbours untouched
        assert len(buf2) == len(buf)

    def test_offsets_are_disjoint_and_ordered(self):
        offs = [(FILE_CONTENT.offset(f), FILE_CONTENT.size(f)) for f in FILE_CONTENT.field_names]
        end = 0
        for off, size in offs:
            assert off == end
            end = off + size
        assert end == FILE_CONTENT.packed_size

    def test_encode_decode_field(self):
        raw = FILE_CONTENT.encode_field("size", 123456)
        assert FILE_CONTENT.decode_field("size", raw) == 123456
        assert len(raw) == FILE_CONTENT.size("size")

    def test_wrong_buffer_size_rejected(self):
        with pytest.raises(ValueError):
            FILE_ACCESS.read(b"\x00" * 3, "mode")

    def test_unknown_field_rejected(self):
        with pytest.raises(KeyError):
            FILE_ACCESS.read(FILE_ACCESS.pack(), "nope")
        with pytest.raises(ValueError):
            FixedLayout("bad", [("a", "Q")], total_size=2)

    @given(
        st.floats(0, 2**31, allow_nan=False),
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
    )
    def test_access_roundtrip_property(self, ctime, mode, uid, gid):
        buf = FILE_ACCESS.pack(ctime=ctime, mode=mode, uid=uid, gid=gid)
        assert FILE_ACCESS.read(buf, "mode") == mode
        assert FILE_ACCESS.read(buf, "uid") == uid
        assert FILE_ACCESS.read(buf, "gid") == gid
        assert FILE_ACCESS.read(buf, "ctime") == ctime

    @pytest.mark.parametrize("layout", _ALL_LAYOUTS, ids=lambda layout: layout.name)
    def test_values_is_positional_unpack(self, layout):
        """``values`` is ``unpack``'s values in ``field_names`` order, and a
        wrong-size buffer raises ``unpack``'s error."""
        rng = random.Random(layout.name)
        for _ in range(64):
            buf = rng.randbytes(layout.total_size)
            want = layout.unpack(buf)
            assert layout.values(buf) == tuple(want[f] for f in layout.field_names)
        for size in (0, layout.total_size - 1, layout.total_size + 1):
            with pytest.raises(ValueError) as want_err:
                layout.unpack(bytes(size))
            with pytest.raises(ValueError) as got_err:
                layout.values(bytes(size))
            assert got_err.value.args == want_err.value.args

    def test_joined_needs_pad_free_layouts(self):
        assert joined(FILE_ACCESS, FILE_CONTENT).size == FILE_ATTRS.size == 60
        with pytest.raises(ValueError, match="dir_inode"):
            joined(FILE_ACCESS, DIR_INODE)

    @pytest.mark.parametrize("layout", [DIR_INODE, FILE_ACCESS, FILE_CONTENT, FILE_COUPLED],
                             ids=lambda layout: layout.name)
    def test_perm_is_three_reads(self, layout):
        """``perm`` gives what ``read`` gives field by field: the values, and
        the same errors for a wrong-size buffer or a layout without the
        fields (``FILE_CONTENT``)."""
        rng = random.Random(layout.name)
        for _ in range(64):
            buf = rng.randbytes(layout.total_size)
            try:
                want = tuple(layout.read(buf, f) for f in ("mode", "uid", "gid"))
            except KeyError as exc:
                with pytest.raises(KeyError) as got:
                    layout.perm(buf)
                assert got.value.args == exc.args
                continue
            assert layout.perm(buf) == want
        for size in (0, layout.total_size - 1, layout.total_size + 1):
            with pytest.raises(ValueError) as want_err:
                layout.read(bytes(size), "mode")
            with pytest.raises(ValueError) as got_err:
                layout.perm(bytes(size))
            assert got_err.value.args == want_err.value.args


def _entries(*triples):
    return b"".join(dirent.pack_entry(n, u, t) for n, u, t in triples)


def _names(buf):
    return [e.name for e in dirent.iter_entries(buf)]


def _repack_remove(buf, name):
    """Reference oracle: the decode/re-encode removal that the byte-level
    ``dirent.remove_entry`` replaced.  Splice output must equal this."""
    out = bytearray()
    removed = False
    for e in dirent.iter_entries(buf):
        if not removed and e.name == name:
            removed = True
            continue
        out += dirent.pack_entry(e.name, e.uuid, e.ftype)
    return bytes(out), removed


def _assert_agrees_with_oracle(buf, name):
    want_buf, want_removed = _repack_remove(buf, name)
    got_buf, got_removed = dirent.remove_entry(buf, name)
    assert (got_buf, got_removed) == (want_buf, want_removed)
    assert dirent.contains(buf, name) == want_removed
    n = len(_names(buf))
    assert dirent.count_entries(buf) == n
    assert dirent.count_entries(got_buf) == n - want_removed


class TestDirent:
    def test_pack_iter_roundtrip(self):
        buf = dirent.pack_entry("file.txt", 42, FileType.FILE)
        buf += dirent.pack_entry("subdir", 43, FileType.DIRECTORY)
        got = list(dirent.iter_entries(buf))
        assert got == [
            DirEntry("file.txt", 42, FileType.FILE),
            DirEntry("subdir", 43, FileType.DIRECTORY),
        ]
        assert all(type(e.ftype) is FileType for e in got)

    def test_contains(self):
        buf = b"".join(
            dirent.pack_entry(f"f{i}", i, FileType.FILE) for i in range(10)
        )
        assert dirent.contains(buf, "f7")
        assert not dirent.contains(buf, "missing")
        assert not dirent.contains(buf, "f")
        assert not dirent.contains(b"", "f7")

    def test_remove_entry(self):
        buf = b"".join(dirent.pack_entry(f"f{i}", i, FileType.FILE) for i in range(3))
        buf2, removed = dirent.remove_entry(buf, "f1")
        assert removed
        assert _names(buf2) == ["f0", "f2"]
        buf3, removed = dirent.remove_entry(buf2, "f1")
        assert not removed
        assert buf3 is buf2

    def test_count_and_empty(self):
        assert dirent.count_entries(b"") == 0
        buf = dirent.pack_entry("x", 1, FileType.FILE)
        assert dirent.count_entries(buf) == 1
        assert len(buf) == 12  # the smallest entry: non-empty buf <=> >= 1 entry

    def test_unicode_names(self):
        buf = dirent.pack_entry("файл-数据", 9, FileType.FILE)
        assert _names(buf) == ["файл-数据"]
        assert dirent.contains(buf, "файл-数据")
        assert dirent.remove_entry(buf, "файл-数据") == (b"", True)

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError):
            dirent.pack_entry("", 1, FileType.FILE)

    def test_unstorable_names_are_absent(self):
        buf = _entries(("a", 1, FileType.FILE), ("b" * 256, 0, FileType.FILE))
        for name in ("", "x" * 65536):
            assert not dirent.contains(buf, name)
            assert dirent.remove_entry(buf, name) == (buf, False)

    @given(st.lists(st.text(alphabet="abcXYZ09_-.", min_size=1, max_size=20), unique=True, max_size=30))
    def test_roundtrip_property(self, names_list):
        buf = b"".join(dirent.pack_entry(n, i, FileType.FILE) for i, n in enumerate(names_list))
        assert _names(buf) == names_list
        assert dirent.count_entries(buf) == len(names_list)


#: few symbols, so duplicates and prefix/suffix pairs are common; one-, two-
#: and three-byte UTF-8; and the control bytes entry headers are made of, so
#: ``[u16 len][name]`` needles turn up inside other names
_NAME = st.text(alphabet="ab\x00\x01\x02\x0bé数", min_size=1, max_size=6)
_UUID = st.one_of(
    st.integers(0, 2**64 - 1),
    # little-endian images that spell the header + name of a short entry
    st.sampled_from([0x610001, 0x62610002, 0x0100, 0x01000161, 0x6100016100016100]),
)
_ENTRY = st.tuples(_NAME, _UUID, st.sampled_from(FileType))


class TestDirentBytePlane:
    """``remove_entry`` / ``contains`` / ``count_entries`` never decode; they
    must agree byte-for-byte with the decode/re-encode oracle."""

    @given(st.lists(_ENTRY, max_size=12), _NAME, st.data())
    def test_differential_vs_repack_oracle(self, entries, stray, data):
        buf = _entries(*entries)
        present = [n for n, _, _ in entries]
        candidates = [stray, stray + stray] + present + [n[:-1] for n in present if len(n) > 1]
        name = data.draw(st.sampled_from(candidates))
        _assert_agrees_with_oracle(buf, name)

    @given(st.lists(_ENTRY, min_size=1, max_size=8))
    def test_remove_everything_in_any_order(self, entries):
        buf = ref = _entries(*entries)
        for name, _, _ in reversed(entries):
            _assert_agrees_with_oracle(buf, name)
            buf, _ = dirent.remove_entry(buf, name)
            ref, _ = _repack_remove(ref, name)
        assert buf == ref == b""

    def test_duplicate_names_remove_first_only(self):
        buf = _entries(("d", 1, FileType.FILE), ("x", 2, FileType.FILE),
                       ("d", 3, FileType.DIRECTORY))
        out, removed = dirent.remove_entry(buf, "d")
        assert removed
        assert list(dirent.iter_entries(out)) == [
            DirEntry("x", 2, FileType.FILE), DirEntry("d", 3, FileType.DIRECTORY)]
        _assert_agrees_with_oracle(buf, "d")

    @pytest.mark.parametrize("tail", [[], [("a", 7, FileType.FILE)]],
                             ids=["absent", "present-later"])
    @pytest.mark.parametrize("decoy", [
        pytest.param(("zz\x01\x00a", 5, FileType.FILE), id="inside-longer-name"),
        pytest.param(("b", 0x610001, FileType.FILE), id="inside-uuid"),
        pytest.param(("x\x01", 0x6100, FileType.FILE), id="across-name-and-uuid"),
    ])
    def test_needle_off_boundary(self, decoy, tail):
        buf = _entries(decoy, *tail)
        # the decoy carries the needle of "a" (01 00 61) off any boundary
        assert buf.find(b"\x01\x00a") > 0
        _assert_agrees_with_oracle(buf, "a")
        assert dirent.remove_entry(buf, "a") == (_entries(decoy), bool(tail))

    def test_prefix_and_suffix_names_do_not_match(self):
        others = [("ab", 1, FileType.FILE), ("ba", 2, FileType.FILE),
                  ("aa", 3, FileType.DIRECTORY)]
        buf = _entries(*others)
        _assert_agrees_with_oracle(buf, "a")
        assert not dirent.contains(buf, "a")
        buf = _entries(*others, ("a", 4, FileType.FILE))
        _assert_agrees_with_oracle(buf, "a")
        assert dirent.remove_entry(buf, "a") == (_entries(*others), True)

    def test_needle_across_type_byte_and_next_header(self):
        # FILE's type byte 01, then the header of a 256-byte name (00 01):
        # together the needle of the one-byte name "\x01"
        buf = _entries(("p", 9, FileType.FILE), ("q" * 256, 9, FileType.FILE))
        assert buf.find(b"\x01\x00\x01") == 11  # p's type byte
        _assert_agrees_with_oracle(buf, "\x01")
        assert not dirent.contains(buf, "\x01")
        buf += dirent.pack_entry("\x01", 4, FileType.FILE)
        _assert_agrees_with_oracle(buf, "\x01")
        assert dirent.remove_entry(buf, "\x01") == (buf[:-12], True)

    @pytest.mark.usefixtures("quiet_gc")
    def test_removing_last_of_2000_decodes_nothing(self, monkeypatch):
        def no_decode(*a, **k):
            raise AssertionError("byte-level removal constructed a DirEntry")

        n = 2000
        buf = _entries(*((f"file.{i:05d}", i, FileType.FILE) for i in range(n)))
        last = f"file.{n - 1:05d}"
        want, _ = _repack_remove(buf, last)
        monkeypatch.setattr(dirent, "DirEntry", no_decode)
        prof = cProfile.Profile()
        prof.enable()
        got, removed = dirent.remove_entry(buf, last)
        prof.disable()
        assert removed and got == want
        # exact and machine-independent: O(1) calls however long the list is
        assert pstats.Stats(prof).total_calls <= 16


# -- the FMS create handler against a reference built from the public API ----------

#: ASCII, multi-byte UTF-8 (2-, 3- and 4-byte), and the 255-character names a
#: path component may carry, in one to four bytes per character
_CREATE_NAME = st.one_of(
    st.text(alphabet="abcXYZ019._-", min_size=1, max_size=12),
    st.text(alphabet="éßж数据🙂", min_size=1, max_size=8),
    st.sampled_from(["x" * 255, "é" * 255, "数" * 255, "🙂" * 255]),
)


def _metered_fms(decoupled: bool, reserve: int):
    cost = CostModel()
    fms = FileMetadataServer(sid=3, decoupled=decoupled, cost=cost)
    fms.attach_meter(Meter(KVCostPolicy(cost)))
    fms.FID_RESERVE = reserve
    return fms


class _ReferenceCreate:
    """``op_create`` the long way: the store calls a create is charged for,
    issued one by one through public API — ``UuidAllocator.allocate``,
    ``FixedLayout.pack`` by keyword, ``dirent.pack_entry`` and the
    ``KVStore.append`` default for the dirent append."""

    def __init__(self, decoupled: bool, reserve: int):
        self.cost = CostModel()
        self.decoupled = decoupled
        self.reserve = reserve
        self.store = HashStore(meter=Meter(KVCostPolicy(self.cost)))
        self.alloc = UuidAllocator(sid=3)

    def create(self, dir_uuid, name, mode, cred, now_s, bsize=4096):
        store = self.store
        key = fkey(dir_uuid, name)
        if store.get((b"A:" if self.decoupled else b"F:") + key) is not None:
            raise Exists(name)
        uuid = self.alloc.allocate()
        fid = uuid_fid(uuid)
        ceiling = store.get(b"M:fid_ceiling")
        if ceiling is None or fid > int.from_bytes(ceiling, "big"):
            store.put(b"M:fid_ceiling", (fid + self.reserve).to_bytes(8, "big"))
        a = FILE_ACCESS.pack(ctime=now_s, mode=S_IFREG | (mode & 0o7777),
                             uid=cred.uid, gid=cred.gid)
        c = FILE_CONTENT.pack(mtime=now_s, atime=now_s, size=0, bsize=bsize,
                              suuid=uuid, sid=3)
        if self.decoupled:
            store.put(b"A:" + key, a)
            store.put(b"C:" + key, c)
        else:
            buf = FILE_COUPLED.pack(index_blob=b"", **FILE_ACCESS.unpack(a),
                                    **FILE_CONTENT.unpack(c))
            store.meter.charge_us(self.cost.serialize_us(len(buf)), "serialize")
            store.put(b"F:" + key, buf)
        KVStore.append(store, b"E:" + dir_uuid.to_bytes(8, "big"),
                       dirent.pack_entry(name, uuid, FileType.FILE))
        return uuid


class TestLeanCreate:
    """``FileMetadataServer.op_create`` packs, allocates and builds its
    dirent inline; the virtual plane must not see the difference."""

    @given(st.lists(_CREATE_NAME, min_size=1, max_size=5, unique=True),
           st.booleans(), st.sampled_from([1, 3, 1024]), st.data())
    def test_differential_vs_public_api_reference(self, pool, decoupled, reserve, data):
        ops = data.draw(st.lists(
            st.tuples(st.integers(1, 2), st.sampled_from(pool),
                      st.sampled_from([0o644, 0o600, 0o107777]),
                      st.sampled_from([Credentials(0, 0), Credentials(1000, 100)])),
            min_size=1, max_size=16))
        fms = _metered_fms(decoupled, reserve)
        ref = _ReferenceCreate(decoupled, reserve)
        for i, (d, name, mode, cred) in enumerate(ops):
            now_s = 0.25 * i
            outcomes = []
            for create in (fms.op_create, ref.create):
                try:
                    outcomes.append(create(d, name, mode, cred, now_s))
                except Exists as exc:
                    outcomes.append(("Exists", str(exc)))
            assert outcomes[0] == outcomes[1], (i, d, name)
        assert list(fms.store._data.items()) == list(ref.store._data.items())
        got, want = fms.meter, ref.store.meter
        assert got.op_counts == want.op_counts
        assert got.byte_counts == want.byte_counts
        assert got.total_us.hex() == want.total_us.hex()  # bit-equal
        assert fms.counters.get("files.created") == fms.num_files_fast()

    @pytest.mark.parametrize("bad", ["", "x" * 65536, "é" * 32768])
    def test_bad_name_rejected_before_any_store_access(self, bad):
        fms = _metered_fms(True, 1024)
        with pytest.raises(ValueError):
            fms.op_create(1, bad, 0o644, Credentials(0, 0), 0.0)
        assert fms.meter.op_counts == {}
        assert fms.num_files() == 0

    @pytest.mark.usefixtures("quiet_gc")
    @pytest.mark.parametrize("decoupled", [True, False], ids=["decoupled", "coupled"])
    def test_warm_create_exact_call_count(self, decoupled):
        """One warm create under cProfile: exact and machine-independent.
        CPython 3.11.7 counts 31 decoupled and 43 coupled, the profiler's
        own ``disable`` included; of the decoupled 30, all but the handler
        frame, one encode and one ``len`` are the store and meter calls the
        model charges (coupled adds the serialization path).  The
        handler that went through ``pack_values`` frames, ``UuidAllocator``
        and ``dirent.pack_entry`` counted 46 and 62."""
        fms = _metered_fms(decoupled, 1024)
        cred = Credentials(0, 0)
        fms.op_create(1, "warm", 0o644, cred, 0.0)  # meter keys, dirent list
        prof = cProfile.Profile()
        prof.runcall(fms.op_create, 1, "f000001", 0o644, cred, 0.5)
        assert pstats.Stats(prof).total_calls <= (31 if decoupled else 43)


class TestAcl:
    def test_root_always_allowed(self):
        assert acl.may_access(0o000, 1, 1, Credentials(0, 0), acl.R_OK | acl.W_OK)

    def test_owner_bits(self):
        cred = Credentials(10, 20)
        assert acl.may_access(0o700, 10, 99, cred, acl.R_OK | acl.W_OK | acl.X_OK)
        assert not acl.may_access(0o070, 10, 99, cred, acl.R_OK)  # owner class wins

    def test_group_bits(self):
        cred = Credentials(10, 20)
        assert acl.may_access(0o070, 99, 20, cred, acl.R_OK | acl.W_OK | acl.X_OK)
        assert not acl.may_access(0o007, 99, 20, cred, acl.R_OK)

    def test_other_bits(self):
        cred = Credentials(10, 20)
        assert acl.may_access(0o005, 99, 99, cred, acl.R_OK | acl.X_OK)
        assert not acl.may_access(0o005, 99, 99, cred, acl.W_OK)

    def test_ancestor_exec_chain(self):
        cred = Credentials(10, 20)
        ok = [(0o755, 0, 0), (0o711, 99, 99)]
        assert acl.check_ancestor_exec(ok, cred)
        blocked = ok + [(0o700, 99, 99)]
        assert not acl.check_ancestor_exec(blocked, cred)


class TestConsistentHash:
    def test_lookup_deterministic(self):
        r1, r2 = ConsistentHashRing(), ConsistentHashRing()
        for n in ["a", "b", "c"]:
            r1.add_node(n)
            r2.add_node(n)
        keys = [f"key{i}".encode() for i in range(100)]
        assert [r1.lookup(k) for k in keys] == [r2.lookup(k) for k in keys]

    @staticmethod
    def _worst_arc_share(vnodes: int, members: int) -> float:
        """The largest member's share of the ring's arcs over the mean share:
        a key hashing into ``[points[i-1], points[i])`` goes to ``owners[i]``."""
        ring = ConsistentHashRing(vnodes=vnodes, nodes=[f"fms{i}" for i in range(members)])
        share = dict.fromkeys(ring.nodes, 0)
        prev = ring._points[-1] - (1 << 64)  # the arc that wraps past zero
        for point, owner in zip(ring._points, ring._owners):
            share[owner] += point - prev
            prev = point
        return max(share.values()) * members / (1 << 64)

    def test_default_vnodes_is_the_rule(self):
        """The smallest power of two whose worst arc share over every
        membership fms0..fmsN-1, N = 2..16, is within ARC_SHARE_BOUND of the
        mean: the default meets the bound and every smaller power misses it."""
        def worst(vnodes):
            return max(self._worst_arc_share(vnodes, n) for n in range(2, 17))

        v = chash.DEFAULT_VNODES
        assert v & (v - 1) == 0
        assert worst(v) <= chash.ARC_SHARE_BOUND
        assert all(worst(1 << k) > chash.ARC_SHARE_BOUND for k in range(v.bit_length() - 1))
        assert ConsistentHashRing().vnodes == v

    def test_balance_reasonable(self):
        ring = ConsistentHashRing(vnodes=128)
        for i in range(8):
            ring.add_node(f"fms{i}")
        from collections import Counter

        counts = Counter(ring.lookup(f"k{i}".encode()) for i in range(8000))
        assert len(counts) == 8
        assert min(counts.values()) > 8000 / 8 * 0.5
        assert max(counts.values()) < 8000 / 8 * 1.8

    def test_remove_node_only_moves_its_keys(self):
        ring = ConsistentHashRing()
        for n in ["a", "b", "c", "d"]:
            ring.add_node(n)
        keys = [f"key{i}".encode() for i in range(500)]
        before = {k: ring.lookup(k) for k in keys}
        ring.remove_node("c")
        after = {k: ring.lookup(k) for k in keys}
        for k in keys:
            if before[k] != "c":
                assert after[k] == before[k]
            else:
                assert after[k] != "c"

    def test_empty_ring_raises(self):
        with pytest.raises(RuntimeError):
            ConsistentHashRing().lookup(b"k")

    def test_duplicate_and_missing_nodes(self):
        ring = ConsistentHashRing()
        ring.add_node("a")
        with pytest.raises(ValueError):
            ring.add_node("a")
        with pytest.raises(ValueError):
            ring.remove_node("zz")

    def test_placement_key_distinct_per_parent(self):
        # same file name in different directories must hash independently
        assert file_placement_key(1, "data") != file_placement_key(2, "data")
        assert file_placement_key(1, "a") != file_placement_key(1, "b")


class TestRingMemoLRU:
    """The process-wide ring memo is a bounded LRU: membership churn
    (replication and elasticity runs flip through many node sets) must not
    grow it without bound, and re-touching a hot membership must refresh
    its recency so churn evicts cold entries first."""

    def test_memo_bounded_under_membership_churn(self):
        from repro.metadata import chash

        hot = ConsistentHashRing(vnodes=8)
        hot.add_node("hot0")
        hot.add_node("hot1")
        want = {k: hot.lookup(k) for k in (f"k{i}".encode() for i in range(20))}
        for i in range(chash._RING_MEMO_MAX + 50):
            churn = ConsistentHashRing(vnodes=8)
            churn.add_node(f"churn{i}")
        assert len(chash._RING_MEMO) <= chash._RING_MEMO_MAX
        # lookups stay correct whether or not the memo kept the membership
        again = ConsistentHashRing(vnodes=8)
        again.add_node("hot0")
        again.add_node("hot1")
        assert {k: again.lookup(k) for k in want} == want
        assert len(chash._RING_MEMO) <= chash._RING_MEMO_MAX

    def test_memo_hit_refreshes_recency(self):
        from repro.metadata import chash

        chash._RING_MEMO.clear()
        cap = chash._RING_MEMO_MAX
        for i in range(cap):
            r = ConsistentHashRing(vnodes=4)
            r.add_node(f"m{i}")
        assert len(chash._RING_MEMO) == cap
        # a memo hit (identical membership) must move m0 to the tail ...
        touched = ConsistentHashRing(vnodes=4)
        touched.add_node("m0")
        assert len(chash._RING_MEMO) == cap  # hit, not an insert
        # ... so the next eviction claims the coldest entry, m1, not m0
        fresh = ConsistentHashRing(vnodes=4)
        fresh.add_node("fresh")
        def key(n):
            return (frozenset({n}), 4)

        assert key("m0") in chash._RING_MEMO
        assert key("m1") not in chash._RING_MEMO
        assert len(chash._RING_MEMO) <= cap

    def test_identical_memberships_share_ring_storage(self):
        a = ConsistentHashRing(vnodes=16)
        b = ConsistentHashRing(vnodes=16)
        for n in ("x", "y", "z"):
            a.add_node(n)
            b.add_node(n)
        assert a._points is b._points  # memoized tuples, not rebuilt copies
        assert a._owners is b._owners


class TestLeaseCache:
    def test_hit_within_lease(self):
        c = LeaseCache(lease_seconds=30)
        c.put("k", "v", now_us=0)
        assert c.get("k", now_us=29_999_999) == "v"
        assert c.hits == 1

    def test_expires_exactly_at_lease(self):
        c = LeaseCache(lease_seconds=30)
        c.put("k", "v", now_us=0)
        assert c.get("k", now_us=30_000_000) is None
        assert c.expirations == 1

    def test_miss_unknown(self):
        c = LeaseCache()
        assert c.get("nope", 0) is None
        assert c.misses == 1

    def test_lru_eviction(self):
        c = LeaseCache(capacity=2)
        c.put("a", 1, 0)
        c.put("b", 2, 0)
        c.get("a", 1)  # touch a
        c.put("c", 3, 0)  # evicts b
        assert c.get("b", 1) is None
        assert c.get("a", 1) == 1
        assert c.get("c", 1) == 3

    def test_invalidate_prefix(self):
        c = LeaseCache()
        for p in ["/a", "/a/b", "/a/bb", "/ax", "/z"]:
            c.put(p, p, 0)
        assert c.invalidate_prefix("/a/") == 2
        assert c.get("/a", 1) == "/a"
        assert c.get("/a/b", 1) is None
        assert c.get("/ax", 1) == "/ax"

    def test_put_refreshes_lease(self):
        c = LeaseCache(lease_seconds=1)
        c.put("k", "v1", now_us=0)
        c.put("k", "v2", now_us=900_000)
        assert c.get("k", now_us=1_500_000) == "v2"

    def test_hit_rate(self):
        c = LeaseCache()
        c.put("k", 1, 0)
        c.get("k", 1)
        c.get("x", 1)
        assert c.hit_rate == 0.5

    def test_full_cache_evicts_expired_before_live_lru(self):
        c = LeaseCache(lease_seconds=1, capacity=3)
        c.put("dead", 1, now_us=0)
        c.put("live-old", 2, now_us=2_000_000)
        c.put("live-new", 3, now_us=2_000_001)
        # "dead" has expired by now: it must be the eviction victim even
        # though "live-old" is the LRU entry
        c.put("fresh", 4, now_us=2_000_002)
        assert len(c) == 3
        assert c.expirations == 1
        assert c.get("live-old", 2_000_003) == 2
        assert c.get("fresh", 2_000_003) == 4
        assert c.get("dead", 2_000_003) is None

    def test_renewed_entry_not_evicted_as_expired(self):
        c = LeaseCache(lease_seconds=1, capacity=2)
        c.put("a", 1, now_us=0)
        assert c.renew("a", 900_000)
        c.put("b", 2, now_us=1_500_000)
        # "a" was renewed at 0.9 s: still live at 1.5 s despite the stale
        # heap tuple from its original insertion
        c.put("c", 3, now_us=1_600_000)  # over capacity: LRU evicts "a"...
        assert c.expirations == 0
        assert c.get("b", 1_600_001) == 2
        assert c.get("c", 1_600_001) == 3

    def test_invalidate_prefix_is_sublinear_at_64k_entries(self):
        c = LeaseCache(capacity=1 << 17)
        n = 1 << 16
        for i in range(n):
            c.put(f"/dirs/d{i:05d}/sub", i, 0)
        c.invalidate_prefix("/warmup-none/")  # absorbs the one-time sort
        c.prefix_scan_steps = 0
        removed = c.invalidate_prefix("/dirs/d00512/")
        assert removed == 1
        # O(log n + hits), not O(n): a full scan would be 65536 steps
        assert c.prefix_scan_steps <= 8
        assert len(c) == n - 1

    def test_prefix_index_survives_rename_bursts(self):
        c = LeaseCache()
        for p in ["/a/x", "/a/y", "/b/x", "/c/x"]:
            c.put(p, p, 0)
        # d-rename sequence: invalidate + invalidate_prefix, repeatedly
        c.invalidate("/a/x")
        assert c.invalidate_prefix("/a/") == 1
        c.put("/a2/x", 1, 0)  # new key after the index was built
        assert c.invalidate_prefix("/a2/") == 1
        assert c.invalidate_prefix("/b/") == 1
        assert c.get("/c/x", 1) == "/c/x"
