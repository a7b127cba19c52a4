"""Unit tests for the write-ahead log and SSTable file format."""

import os

import pytest

from repro.kv.sstable import SSTable, SSTableBuilder
from repro.kv import BTreeStore, HashStore
from repro.kv.wal import OP_APPEND, OP_DELETE, OP_PUT, WriteAheadLog, encode_record


class TestWAL:
    def test_replay_roundtrip(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append_put(b"a", b"1")
        wal.append_put(b"b", b"2")
        wal.append_delete(b"a")
        wal.flush()
        records = list(WriteAheadLog.replay(path))
        assert records == [(OP_PUT, b"a", b"1"), (OP_PUT, b"b", b"2"), (OP_DELETE, b"a", b"")]
        wal.close()

    def test_replay_missing_file_is_empty(self, tmp_path):
        assert list(WriteAheadLog.replay(str(tmp_path / "nope.log"))) == []

    def test_truncated_tail_is_dropped(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append_put(b"good", b"record")
        wal.flush()
        wal.close()
        with open(path, "ab") as fh:
            fh.write(encode_record(OP_PUT, b"torn", b"record")[:-3])
        records = list(WriteAheadLog.replay(path))
        assert records == [(OP_PUT, b"good", b"record")]

    def test_reopen_cuts_a_torn_tail(self, tmp_path):
        # a record logged after reopening a torn log must not sit behind
        # the torn bytes, where replay would never reach it
        path = str(tmp_path / "wal.log")
        with open(path, "wb") as fh:
            fh.write(encode_record(OP_PUT, b"good", b"1")
                     + encode_record(OP_PUT, b"torn", b"record")[:-3])
        wal = WriteAheadLog(path)
        wal.append_put(b"after", b"2")
        wal.close()
        assert list(WriteAheadLog.replay(path)) == [
            (OP_PUT, b"good", b"1"), (OP_PUT, b"after", b"2")]

    def test_corrupt_crc_stops_replay(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append_put(b"one", b"1")
        wal.append_put(b"two", b"2")
        wal.flush()
        wal.close()
        data = bytearray(open(path, "rb").read())
        data[-1] ^= 0xFF  # corrupt last record's payload
        open(path, "wb").write(bytes(data))
        records = list(WriteAheadLog.replay(path))
        assert records == [(OP_PUT, b"one", b"1")]

    def test_torn_mid_group_commit_recovers_prefix(self, tmp_path):
        # a group commit is one write() but not atomic on disk: a crash can
        # tear it anywhere — replay keeps the complete groups before it and
        # none of the torn group, wherever the tear falls
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        for group in (range(3), range(3, 6)):
            wal.begin_group()
            for i in group:
                wal.append_put(f"k{i}".encode(), f"v{i}".encode())
            wal.end_group()
        wal.flush()
        wal.close()
        one = len(encode_record(OP_PUT, b"k0", b"v0"))
        with open(path, "rb") as fh:
            data = fh.read()
        assert len(data) == 6 * one  # the group flag costs no byte
        first = [(OP_PUT, f"k{i}".encode(), f"v{i}".encode()) for i in range(3)]
        for cut in range(3 * one, 6 * one):
            with open(path, "wb") as fh:
                fh.write(data[:cut])
            assert list(WriteAheadLog.replay(path)) == first, cut
        with open(path, "wb") as fh:
            fh.write(data)
        assert len(list(WriteAheadLog.replay(path))) == 6

    def test_torn_append_many_tail_recovers_prefix(self, tmp_path):
        # outside a group commit, append_many is a group of its own: a tear
        # anywhere in it replays none of its records, only what came before
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append_put(b"w", b"0")
        wal.append_many([(OP_PUT, b"a", b"1"), (OP_PUT, b"b", b"2"),
                         (OP_DELETE, b"a", b""), (OP_PUT, b"c", b"3")])
        assert wal.commits == 2
        wal.flush()
        wal.close()
        with open(path, "rb") as fh:
            data = fh.read()
        head = len(encode_record(OP_PUT, b"w", b"0"))
        for cut in range(head, len(data)):
            with open(path, "wb") as fh:
                fh.write(data[:cut])
            assert list(WriteAheadLog.replay(path)) == [(OP_PUT, b"w", b"0")], cut
        with open(path, "wb") as fh:
            fh.write(data)
        assert len(list(WriteAheadLog.replay(path))) == 5

    def test_torn_tail_then_new_appends_replay_cleanly(self, tmp_path):
        # replay stops at the tear and a reopened log cuts it off — verify
        # a store reopened over a torn log recovers the prefix and keeps
        # working (mirrors tests/test_recovery.py at the store level); a
        # multi_put outside a group commit is a group of its own
        from repro.kv.hashdb import HashStore

        path = str(tmp_path / "wal.log")
        store = HashStore(wal_path=path)
        store.put(b"w", b"0")
        store.multi_put([(b"x", b"1"), (b"y", b"2"), (b"z", b"3")])
        store._wal.flush()
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[:-1])  # lose the last byte of the group
        recovered = HashStore(wal_path=path)
        assert recovered.get(b"w") == b"0"
        # the torn group is dropped whole, its intact records too
        assert [recovered.get(k) for k in (b"x", b"y", b"z")] == [None] * 3
        recovered.put(b"v", b"4")
        recovered.close()
        again = HashStore(wal_path=path)
        assert (again.get(b"w"), again.get(b"v"), again.get(b"x")) == (b"0", b"4", None)
        again.close()

    def test_truncate_inside_group_drops_buffered_records(self, tmp_path):
        # regression: truncate() used to leave records buffered by an open
        # group in place, so the outermost end_group resurrected state the
        # memtable flush had just made durable into the fresh log
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.begin_group()
        wal.append_put(b"flushed", b"1")
        wal.truncate()  # memtable overflow flush landing mid-group
        wal.append_put(b"live", b"2")
        wal.end_group()
        wal.flush()
        assert list(WriteAheadLog.replay(path)) == [(OP_PUT, b"live", b"2")]
        wal.close()

    def test_truncate_inside_nested_group_keeps_depth(self, tmp_path):
        # the group must stay open at the same nesting depth across a
        # truncate: only the outermost end_group may write
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.begin_group()
        wal.begin_group()
        wal.append_put(b"old", b"1")
        wal.truncate()
        wal.append_put(b"inner", b"2")
        wal.end_group()  # inner: must not flush yet
        wal.flush()
        assert list(WriteAheadLog.replay(path)) == []
        wal.append_put(b"outer", b"3")
        wal.end_group()
        wal.flush()
        assert list(WriteAheadLog.replay(path)) == [
            (OP_PUT, b"inner", b"2"), (OP_PUT, b"outer", b"3")]
        assert wal.commits == 1  # both survivors in one commit
        wal.close()

    def test_truncate_resets_log(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append_put(b"a", b"1")
        wal.truncate()
        wal.append_put(b"b", b"2")
        wal.flush()
        assert list(WriteAheadLog.replay(path)) == [(OP_PUT, b"b", b"2")]
        wal.close()

    def test_binary_safe_keys_and_values(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        key = bytes(range(256))
        value = b"\x00\xff" * 100
        wal.append_put(key, value)
        wal.flush()
        assert list(WriteAheadLog.replay(path)) == [(OP_PUT, key, value)]
        wal.close()


#: appends onto an absent key, onto one a put made, onto b"", after a
#: delete, and an empty append — each grows the value by its tail alone
_APPEND_RUN = [
    ("append", b"E:d", b"one"), ("append", b"E:d", b"two"),
    ("put", b"E:p", b"base"), ("append", b"E:p", b"+1"),
    ("put", b"E:e", b""), ("append", b"E:e", b"x"),
    ("append", b"E:g", b"gone"), ("delete", b"E:g"), ("append", b"E:g", b"back"),
    ("append", b"E:d", b""), ("append", b"E:d", b"three"),
]


@pytest.mark.parametrize("cls", [HashStore, BTreeStore])
class TestAppendRecords:
    """``HashStore`` / ``BTreeStore.append`` log the appended bytes alone
    (``OP_APPEND``), and replay rebuilds the value they grew."""

    def _run(self, cls, path):
        store = cls(wal_path=path)
        for op, *args in _APPEND_RUN:
            getattr(store, op)(*args)
        live = sorted(store.items())
        store.close()
        return live

    def test_replay_rebuilds_the_same_bytes(self, cls, tmp_path):
        path = str(tmp_path / "wal.log")
        live = self._run(cls, path)
        assert dict(live) == {b"E:d": b"onetwothree", b"E:p": b"base+1",
                              b"E:e": b"x", b"E:g": b"back"}
        records = list(WriteAheadLog.replay(path))
        assert [(k, v) for op, k, v in records if op == OP_APPEND] == [
            (args[0], args[1]) for op, *args in _APPEND_RUN if op == "append"]
        recovered = cls(wal_path=path)
        assert sorted(recovered.items()) == live
        # the replayed value keeps growing by its tail, and reads stay bytes
        recovered.append(b"E:d", b"!")
        assert recovered.get(b"E:d") == b"onetwothree!"
        assert type(recovered.get(b"E:d")) is bytes
        recovered.close()

    def test_torn_append_tail_is_dropped(self, cls, tmp_path):
        path = str(tmp_path / "wal.log")
        self._run(cls, path)
        last = len(encode_record(OP_APPEND, b"E:d", b"three"))
        WriteAheadLog.tear_tail(path, last - 2)  # the last append, torn
        recovered = cls(wal_path=path)
        assert recovered.get(b"E:d") == b"onetwo"  # the torn tail is lost
        assert recovered.get(b"E:g") == b"back"  # everything before it stays
        recovered.append(b"E:d", b"3")
        recovered.close()
        # reopening cut the torn bytes off, so what the recovered store
        # logged survives the next replay
        again = cls(wal_path=path)
        assert again.get(b"E:d") == b"onetwo3"
        again.close()

    def test_log_grows_by_the_tail_alone(self, cls, tmp_path):
        path = str(tmp_path / "wal.log")
        store = cls(wal_path=path)
        entry = b"x" * 24
        for _ in range(1000):
            store.append(b"E:big", entry)
        store.close()
        one = len(encode_record(OP_APPEND, b"E:big", entry))
        assert os.path.getsize(path) == 1000 * one


class TestSSTable:
    def _build(self, tmp_path, entries, **kw):
        b = SSTableBuilder(str(tmp_path / "t.sst"), **kw)
        for k, v in entries:
            b.add(k, v)
        return b.finish()

    def test_point_lookup(self, tmp_path):
        entries = [(f"k{i:04d}".encode(), f"v{i}".encode()) for i in range(100)]
        t = self._build(tmp_path, entries)
        for k, v in entries:
            found, got = t.get(k)
            assert found and got == v

    def test_absent_key(self, tmp_path):
        t = self._build(tmp_path, [(b"a", b"1"), (b"c", b"3")])
        assert t.get(b"b") == (False, None)
        assert t.get(b"zzz") == (False, None)
        assert t.get(b"0") == (False, None)

    def test_tombstone_found_with_none_value(self, tmp_path):
        t = self._build(tmp_path, [(b"a", b"1"), (b"dead", None)])
        assert t.get(b"dead") == (True, None)

    def test_items_in_order(self, tmp_path):
        entries = [(f"{i:05d}".encode(), b"v") for i in range(50)]
        t = self._build(tmp_path, entries)
        assert [k for k, _ in t.items()] == [k for k, _ in entries]

    def test_scan_range(self, tmp_path):
        entries = [(f"{i:03d}".encode(), str(i).encode()) for i in range(100)]
        t = self._build(tmp_path, entries)
        got = [k for k, _ in t.scan(b"010", b"015")]
        assert got == [b"010", b"011", b"012", b"013", b"014"]

    def test_out_of_order_add_rejected(self, tmp_path):
        b = SSTableBuilder(str(tmp_path / "bad.sst"))
        b.add(b"b", b"1")
        with pytest.raises(ValueError):
            b.add(b"a", b"2")
        with pytest.raises(ValueError):
            b.add(b"b", b"dup")

    def test_empty_table_rejected(self, tmp_path):
        b = SSTableBuilder(str(tmp_path / "empty.sst"))
        with pytest.raises(ValueError):
            b.finish()

    def test_reopen_from_disk(self, tmp_path):
        path = str(tmp_path / "t.sst")
        b = SSTableBuilder(path, file_seq=42)
        b.add(b"alpha", b"1")
        b.add(b"beta", b"2")
        b.finish()
        t = SSTable(path)
        assert t.file_seq == 42
        assert t.get(b"alpha") == (True, b"1")
        assert t.min_key == b"alpha"
        assert t.max_key == b"beta"

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "junk.sst")
        open(path, "wb").write(b"\x00" * 64)
        with pytest.raises(ValueError):
            SSTable(path)

    def test_sparse_index_boundaries(self, tmp_path):
        # exercise keys that land exactly on index interval boundaries
        entries = [(f"{i:04d}".encode(), b"v") for i in range(64)]
        t = self._build(tmp_path, entries, index_interval=16)
        for k, _ in entries:
            assert t.get(k)[0]
