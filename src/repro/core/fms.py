"""File Metadata Server (paper §3.1, §3.3).

Each FMS stores the file inodes that consistent-hash to it.  A file is
keyed by ``directory_uuid + file_name`` — the same key used on the hash
ring — so a file create touches exactly one FMS and never depends on
other file or directory records (flattened directory tree).

Decoupled mode (LocoFS-DF, the paper's design) stores two small
fixed-length values per file:

* ``A:<fkey>`` -> ``FILE_ACCESS``  (ctime, mode, uid, gid)
* ``C:<fkey>`` -> ``FILE_CONTENT`` (mtime, atime, size, bsize, suuid, sid)

and updates individual fields in place (no (de)serialization, §3.3.3).
Coupled mode (LocoFS-CF, the Fig. 11 ablation) stores one big
``FILE_COUPLED`` value per file and pays a serialization charge on every
read and write, the way a whole-inode-per-value system (IndexFS) does.

The dirents of the directory's files that live on this FMS are
concatenated under ``E:<directory_uuid>`` (backward dirent organization).
"""

from __future__ import annotations

import os

from repro.common.errors import Exists, FSError, InvalidArgument, NoEntry, PermissionDenied
from repro.common.stats import Counters
from repro.common.types import Credentials, FileType, S_IFREG
from repro.common.uuidgen import FID_BITS, FID_MASK, UuidAllocator
from repro.kv import HashStore
from repro.kv.api import GroupCommit, NoGroup, group_scope
from repro.kv.meter import Meter
from repro.kv.wal import WriteAheadLog
from repro.metadata import dirent
from repro.metadata.acl import may_access
from repro.metadata.layout import FILE_ACCESS, FILE_ATTRS, FILE_CONTENT, FILE_COUPLED
from repro.sim.costmodel import CostModel

_A = b"A:"
_C = b"C:"
_F = b"F:"
_E = b"E:"

#: a file dirent's type byte
_FTYPE_FILE = int(FileType.FILE)

#: the decoupled parts' fields written in place, or read alone on a hot
#: path, resolved once: ``f.offset`` plus the bound ``f.pack`` /
#: ``f.unpack_from`` (a read checks the record length first, as
#: ``FixedLayout.read`` does)
_A_CTIME, _A_MODE, _A_UID, _A_GID = map(FILE_ACCESS.field,
                                        ("ctime", "mode", "uid", "gid"))
_C_MTIME, _C_ATIME, _C_SIZE, _C_SUUID = map(FILE_CONTENT.field,
                                            ("mtime", "atime", "size", "suuid"))
_A_LEN = FILE_ACCESS.total_size
_C_LEN = FILE_CONTENT.total_size
#: both parts, once each, into the positional getattr reply
_ATTRS = FILE_ATTRS.unpack

#: a getattr reply's length: the access part's fields, then the content
#: part's — also the leading fields of the coupled record, which end with
#: its index blob
_NATTRS = len(FILE_ACCESS.field_names) + len(FILE_CONTENT.field_names)

#: verdicts for a create-batch probe hit (see ``_probe_verdict``)
_APPLIED = 0   # replay of an already-durable create: return its uuid
_REPAIR = 1    # torn WAL tail left a partial create: re-apply as fresh
_CONFLICT = 2  # a different file of the same name exists


def fkey(dir_uuid: int, name: str) -> bytes:
    return dir_uuid.to_bytes(8, "big") + name.encode("utf-8")


def _join_coupled(a: bytes, c: bytes) -> bytes:
    """The coupled record of a file's two parts, with an empty index blob."""
    return FILE_COUPLED.pack_values(*FILE_ACCESS.values(a), *FILE_CONTENT.values(c), b"")


class FileMetadataServer:
    """Handler object for one FMS node."""

    #: how many uuids are reserved per durable allocator checkpoint
    FID_RESERVE = 1024
    _FID_KEY = b"M:fid_ceiling"

    def __init__(
        self,
        sid: int,
        decoupled: bool = True,
        cost: CostModel | None = None,
        track_touches: bool = False,
        wal_path: str | None = None,
    ):
        self.sid = sid
        self.decoupled = decoupled
        self.cost = cost or CostModel()
        self.store = HashStore(wal_path=wal_path)
        self.meter = self.store.meter
        self.alloc = UuidAllocator(sid=sid)
        self.track_touches = track_touches
        self.touches: dict[str, set[str]] = {}
        #: decoupled-vs-coupled telemetry (in-place field writes vs whole-value
        #: rewrites); mirrored into a registry as ``fms<i>.*`` when a run opts in
        self.counters = Counters()
        ceiling = self.store.get(self._FID_KEY)
        if ceiling is not None:
            # restart: skip the durably reserved id range
            self.alloc._next_fid = int.from_bytes(ceiling, "big") + 1
        #: live file count, maintained by the mutating ops — serves
        #: :meth:`num_files_fast` without the O(N) store scan
        self._nfiles = self.num_files()

    def group_commit(self) -> GroupCommit | NoGroup:
        """Group-commit scope for batched RPCs (one WAL fsync per batch).

        Counts every scope (``wal.group_commit``) and, when a WAL is
        attached, the durable commit boundaries it produced (``wal.fsync``
        — each boundary is exactly one fsync when the log runs in sync
        mode), so the amortization claim is auditable from the metrics
        dump: batched creates show ``wal.fsync`` ≪ ``batch.records``.
        """
        return group_scope(self.store, self.counters)

    def attach_meter(self, meter: Meter) -> None:
        self.store.meter = meter
        self.meter = meter

    # -- crash/recovery (repro.sim.faults hooks) ----------------------------------
    def crash(self, torn_tail_bytes: int = 0) -> None:
        """The FMS process dies: volatile state is lost, only the WAL
        survives — optionally with ``torn_tail_bytes`` chopped off, a
        crash that interrupted the physical write-out of a group commit.
        Without a WAL the namespace is honestly gone on restart.
        """
        store = self.store
        wal = getattr(store, "_wal", None)
        self._wal_path = wal.path if wal is not None else None
        # closing flushes buffered log records: in this simulation a record
        # handed to the OS counts as durable (the torn tail models the rest)
        store.close()
        if self._wal_path is not None and torn_tail_bytes:
            WriteAheadLog.tear_tail(self._wal_path, torn_tail_bytes)
        self.store = HashStore()
        self.store.meter = self.meter
        self._nfiles = 0

    def restart(self) -> int:
        """Rebuild the store by WAL replay; returns the replayed byte
        count, which the fault layer converts into recovery latency
        (``CostModel.recovery_us``) before the server serves again."""
        path = getattr(self, "_wal_path", None)
        nbytes = os.path.getsize(path) if path and os.path.exists(path) else 0
        self.store = HashStore(wal_path=path)
        self.store.meter = self.meter
        ceiling = self.store.get(self._FID_KEY)
        if ceiling is not None:
            # never reuse ids from the durably reserved range
            self.alloc._next_fid = int.from_bytes(ceiling, "big") + 1
        self._nfiles = self.num_files()
        return nbytes

    def bind_metrics(self, registry, prefix: str) -> None:
        self.counters.bind(registry, prefix)

    def _touch(self, op: str, *parts: str) -> None:
        """Record the inode parts ``op`` touched; callers test
        ``track_touches`` first, so an untracked op pays no frame."""
        self.touches.setdefault(op, set()).update(parts)

    # -- coupled-mode helpers (LocoFS-CF ablation) --------------------------------
    def _get_coupled(self, key: bytes) -> bytes | None:
        buf = self.store.get(_F + key)
        if buf is not None:
            # whole-value deserialization on every read (§2.2.2)
            self.meter.charge_us(self.cost.serialize_us(len(buf)), "deserialize")
        return buf

    def _put_coupled(self, key: bytes, buf: bytes) -> None:
        self.meter.charge_us(self.cost.serialize_us(len(buf)), "serialize")
        self.store.put(_F + key, buf)

    # -- lookup helpers ----------------------------------------------------------------
    def _load(self, key: bytes) -> tuple[bytes, bytes]:
        """Return (access_buf, content_buf) or raise NoEntry."""
        if self.decoupled:
            a = self.store.get(_A + key)
            if a is None:
                raise NoEntry()
            c = self.store.get(_C + key)
            assert c is not None, "access part exists without content part"
            return a, c
        buf = self._get_coupled(key)
        if buf is None:
            raise NoEntry()
        return self._split_coupled(buf)

    @staticmethod
    def _split_coupled(buf: bytes) -> tuple[bytes, bytes]:
        values = FILE_COUPLED.values(buf)  # both parts' fields, then the blob
        return FILE_ACCESS.pack_values(*values[:4]), FILE_CONTENT.pack_values(*values[4:_NATTRS])

    def _store_both(self, key: bytes, a: bytes, c: bytes) -> None:
        if self.decoupled:
            self.store.put_pair(_A + key, a, _C + key, c)
        else:
            self._put_coupled(key, _join_coupled(a, c))

    def _check_owner(self, a: bytes, cred: Credentials, path_hint: str = "") -> None:
        if cred.uid != 0 and cred.uid != FILE_ACCESS.perm(a)[1]:
            raise PermissionDenied(path_hint)

    # -- operations (Table 1 rows) ---------------------------------------------------
    def op_create(
        self, dir_uuid: int, name: str, mode: int, cred: Credentials, now_s: float,
        bsize: int = 4096,
    ) -> int:
        """Create a file inode + its backward dirent.  Touches Access + Dirent.

        The hottest server op pays only for the work the model charges —
        the probe, the uuid-ceiling get (and put, once per reserve), the
        inode put(s) and the dirent append.  Around them: the name is
        encoded and checked once (before any store access), both parts are
        packed by their layouts' whole-record ``Struct``, and the uuid is
        allocated inline.  Same values, bytes and meter charges in the same
        order as ``UuidAllocator.allocate`` + ``FixedLayout.pack`` +
        ``dirent.pack_entry`` would give.
        """
        if self.track_touches:
            self._touch("create", "access", "dirent")
        raw = name.encode("utf-8")
        nlen = len(raw)
        if not nlen or nlen > dirent.MAX_NAME_BYTES:
            raise ValueError(f"bad dirent name: {name!r}")
        store = self.store
        decoupled = self.decoupled
        dkey = dir_uuid.to_bytes(8, "big")
        key = dkey + raw  # == fkey(dir_uuid, name)
        if store.get((_A if decoupled else _F) + key) is not None:
            raise Exists(name)
        # UuidAllocator.allocate (its sid was range-checked at construction),
        # then the durable reservation check of op_create_batch
        alloc = self.alloc
        fid = alloc._next_fid
        if fid > FID_MASK:
            raise ValueError(f"fid out of range: {fid}")
        alloc._next_fid = fid + 1
        uuid = alloc.sid << FID_BITS | fid
        ceiling = store.get(self._FID_KEY)
        if ceiling is None or fid > int.from_bytes(ceiling, "big"):
            store.put(self._FID_KEY, (fid + self.FID_RESERVE).to_bytes(8, "big"))
        fmode = S_IFREG | (mode & 0o7777)
        # positional packs, field order per Table 1: ctime/mode/uid/gid and
        # mtime/atime/size/bsize/suuid/sid
        a = FILE_ACCESS.pack_values(now_s, fmode, cred.uid, cred.gid)
        c = FILE_CONTENT.pack_values(now_s, now_s, 0, bsize, uuid, self.sid)
        if decoupled:
            store.put_pair(_A + key, a, _C + key, c)
        else:
            self._store_both(key, a, c)
        store.append(_E + dkey,
                     dirent.HEAD.pack(nlen) + raw + dirent.TAIL.pack(uuid, _FTYPE_FILE))
        # counted once the create happened: a rejected duplicate is no create
        self.counters.inc("files.created")
        self._nfiles += 1
        return uuid

    def op_create_batch(self, entries: tuple) -> dict:
        """Create many files in one request: the create-run routine
        behind :meth:`op_apply_batch` (all of a LocoFS-B flush, every
        contiguous create run of a LocoFS-A one).  No client sends it as a
        wire method of its own.

        ``entries`` is a sequence of ``(dir_uuid, name, mode, cred, now_s,
        bsize)`` tuples — the same arguments as :meth:`op_create` — or of
        ``op_apply_batch``'s tagged ``("create", ...)`` form: the fields
        are read from the end, so a run is handed over as it arrived.  The
        existence probes run as one ``multi_get``, the uuid ceiling is
        reserved once, the inode parts land in one ``multi_put``, and the
        backward dirents are coalesced into one append per directory — the
        group-commit amortization that makes batched creates cheap.  Each
        name is encoded once (key, probe key and dirent share the bytes),
        as in :meth:`op_create`.

        Name conflicts do not abort the batch: conflicting entries are
        skipped and reported in ``"exists"``; their ``"uuids"`` slot is
        ``None``.  (The write-behind client surfaces the first conflict as
        :class:`Exists` at the flush boundary — see DESIGN.md.)  A name
        the dirent encoding cannot hold (empty, or over
        ``dirent.MAX_NAME_BYTES`` encoded) raises :class:`InvalidArgument`
        before the run changes anything.

        Retried flushes are exactly-once.  A probe hit whose stored access
        part is byte-identical to what this entry would write (same ctime/
        mode/uid/gid — the content fingerprint of *this* create, since the
        client reuses the original entry tuple on retry) is a replay of an
        already-applied create, not a conflict: the entry is deduplicated,
        its original uuid returned, and its dirent verified (and repaired
        if a torn WAL tail lost it).  Genuine duplicates — a different
        create of the same name — have a different fingerprint and still
        report ``"exists"``.
        """
        if self.track_touches:
            self._touch("create", "access", "dirent")
        n = len(entries)
        store = self.store
        decoupled = self.decoupled
        prefix = _A if decoupled else _F
        keys: list[bytes] = []
        probe_keys: list[bytes] = []
        nlens: list[int] = []  # each name's encoded length, checked here
        for e in entries:
            raw = e[-5].encode("utf-8")
            nlen = len(raw)
            if not nlen or nlen > dirent.MAX_NAME_BYTES:
                raise InvalidArgument(e[-5], "bad dirent name")
            key = e[-6].to_bytes(8, "big") + raw
            keys += (key,)
            probe_keys += (prefix + key,)
            nlens += (nlen,)
        counters = self.counters
        counters.inc("batch.records", n)
        probes = store.multi_get(probe_keys)
        uuids: list[int | None] = [None] * n
        exists: list[str] = []
        fresh: list[int] = []  # slots to create, in order
        # a key twice in one run: the later create is a conflict, so only
        # then are the run's keys tracked
        seen = set() if n > 1 and len(set(keys)) < n else None
        repairs = 0  # torn-tail redos: their access part is already counted
        for i, probe in enumerate(probes):
            if probe is not None:
                key = keys[i]
                verdict, uuid = self._probe_verdict(entries[i], key, key[:8], probe)
                if verdict == _APPLIED:
                    uuids[i] = uuid
                    continue
                if verdict == _CONFLICT:
                    exists += (entries[i][-5],)
                    continue
                repairs += 1
            elif seen is not None and keys[i] in seen:
                exists += (entries[i][-5],)
                continue
            if seen is not None:
                seen.add(keys[i])
            fresh += (i,)
        if not fresh:
            return {"uuids": uuids, "exists": exists}
        # uuids: UuidAllocator.allocate for the run, checked once (fids are
        # monotonic), then the durable ceiling reservation
        m = len(fresh)
        alloc = self.alloc
        fid = alloc._next_fid
        last = fid + m - 1
        if last > FID_MASK:
            raise ValueError(f"fid out of range: {last}")
        alloc._next_fid = last + 1
        ceiling = store.get(self._FID_KEY)
        if ceiling is None or last > int.from_bytes(ceiling, "big"):
            store.put(self._FID_KEY, (last + self.FID_RESERVE).to_bytes(8, "big"))
        counters.inc("files.created", m)
        counters.inc("batch.creates", m)
        sid = self.sid
        uuid = alloc.sid << FID_BITS | fid
        pairs: list[tuple[bytes, bytes]] = []
        dirents: dict[bytes, bytes] = {}
        pack_a = FILE_ACCESS.pack_values
        pack_c = FILE_CONTENT.pack_values
        for i in fresh:
            e = entries[i]
            key = keys[i]
            uuids[i] = uuid
            cred = e[-3]
            now_s = e[-2]
            a = pack_a(now_s, S_IFREG | (e[-4] & 0o7777), cred.uid, cred.gid)
            c = pack_c(now_s, now_s, 0, e[-1], uuid, sid)
            if decoupled:
                pairs += ((_A + key, a), (_C + key, c))
            else:
                buf = _join_coupled(a, c)
                self.meter.charge_us(self.cost.serialize_us(len(buf)), "serialize")
                pairs += ((_F + key, buf),)
            packed = (dirent.HEAD.pack(nlens[i]) + key[8:]
                      + dirent.TAIL.pack(uuid, _FTYPE_FILE))
            dkey = key[:8]
            if dkey in dirents:
                dirents[dkey] += packed
            else:
                dirents[dkey] = packed
            uuid += 1
        store.multi_put(pairs)
        for dkey in dirents:
            store.append(_E + dkey, dirents[dkey])
        self._nfiles += m - repairs
        return {"uuids": uuids, "exists": exists}

    def _probe_verdict(self, entry: tuple, key: bytes, dkey: bytes,
                       probe: bytes) -> tuple[int, int | None]:
        """Classify a create-batch probe hit: replay, torn remnant, or conflict.

        A retried flush re-sends the original entry tuples, so an entry's
        access-part bytes (ctime/mode/uid/gid) are a content fingerprint:
        if the stored access part matches exactly, the stored file *is*
        this create, already applied by the attempt whose response was
        lost.  A different fingerprint is a genuine name conflict (any
        other create carries a different virtual-time ctime).
        """
        dir_uuid, name, mode, cred, now_s, bsize = entry[-6:]
        fmode = S_IFREG | (mode & 0o7777)
        if self.decoupled:
            if probe != FILE_ACCESS.pack_values(now_s, fmode, cred.uid, cred.gid):
                return _CONFLICT, None
            c = self.store.get(_C + key)
            if c is None:
                # the crash tore the WAL between this entry's access and
                # content parts: the create never fully applied — redo it
                return _REPAIR, None
            uuid = FILE_CONTENT.read(c, "suuid")
        else:
            if (FILE_COUPLED.read(probe, "ctime") != now_s
                    or FILE_COUPLED.read(probe, "mode") != fmode
                    or FILE_COUPLED.read(probe, "uid") != cred.uid
                    or FILE_COUPLED.read(probe, "gid") != cred.gid):
                return _CONFLICT, None
            uuid = FILE_COUPLED.read(probe, "suuid")
        # the dirent append lands after the inode parts in the WAL, so a
        # torn tail can leave the inode without its dirent — repair it
        ekey = _E + dkey
        buf = self.store.get(ekey) or b""
        if not dirent.contains(buf, name):
            self.store.append(ekey, dirent.pack_entry(name, uuid, FileType.FILE))
        self.counters.inc("batch.deduped")
        return _APPLIED, uuid

    def op_getattr(self, dir_uuid: int, name: str) -> tuple:
        """stat on a file reads both parts (Table 1: getattr touches all).

        The reply is positional, in layout order: ``FILE_ACCESS.field_names
        + FILE_CONTENT.field_names``, i.e. (ctime, mode, uid, gid, mtime,
        atime, size, bsize, suuid, sid).  Each stored part is decoded once;
        the coupled record is decoded once (after its deserialization
        charge) and cut to the same ten fields."""
        if self.track_touches:
            self._touch("getattr", "access", "content")
        key = dir_uuid.to_bytes(8, "big") + name.encode("utf-8")  # == fkey
        if self.decoupled:
            get = self.store.get
            a = get(_A + key)
            if a is None:
                raise NoEntry()
            c = get(_C + key)
            assert c is not None, "access part exists without content part"
            if len(a) != _A_LEN:
                FILE_ACCESS.check(a)
            if len(c) != _C_LEN:
                FILE_CONTENT.check(c)
            return _ATTRS(a + c)
        buf = self._get_coupled(key)
        if buf is None:
            raise NoEntry()
        return FILE_COUPLED.values(buf)[:_NATTRS]

    def op_open(self, dir_uuid: int, name: str, cred: Credentials, want: int) -> dict:
        """open checks the access part (content read is optional in Table 1)."""
        if self.track_touches:
            self._touch("open", "access")
        key = dir_uuid.to_bytes(8, "big") + name.encode("utf-8")  # == fkey
        if self.decoupled:  # _load's decoupled half, inline
            get = self.store.get
            a = get(_A + key)
            if a is None:
                raise NoEntry()
            c = get(_C + key)
            assert c is not None, "access part exists without content part"
        else:
            a, c = self._load(key)
        mode, uid, gid = FILE_ACCESS.perm(a)
        if not may_access(mode, uid, gid, cred, want):
            raise PermissionDenied(name)
        if len(c) != _C_LEN:
            FILE_CONTENT.check(c)
        return {"uuid": _C_SUUID.unpack_from(c, _C_SUUID.offset)[0], "mode": mode,
                "size": _C_SIZE.unpack_from(c, _C_SIZE.offset)[0]}

    def op_access(self, dir_uuid: int, name: str, cred: Credentials, want: int) -> bool:
        """access(2): touches only the access part."""
        if self.track_touches:
            self._touch("access", "access")
        key = dir_uuid.to_bytes(8, "big") + name.encode("utf-8")  # == fkey
        if self.decoupled:
            a = self.store.get(_A + key)
            if a is None:
                raise NoEntry(name)
        else:
            a, _ = self._load(key)
        return may_access(*FILE_ACCESS.perm(a), cred, want)

    def op_setattr(self, dir_uuid: int, name: str, cred: Credentials, now_s: float,
                   mode: int | None = None, uid: int | None = None,
                   gid: int | None = None) -> None:
        """chmod/chown: touches only the access part (Table 1)."""
        if self.track_touches:
            self._touch("chmod" if mode is not None else "chown", "access")
        self.counters.inc("setattr.inplace" if self.decoupled else "setattr.rewrite")
        key = dir_uuid.to_bytes(8, "big") + name.encode("utf-8")  # == fkey
        if self.decoupled:
            akey = _A + key
            a = self.store.get(akey)
            if a is None:
                raise NoEntry(name)
            self._check_owner(a, cred, name)
            # in-place fixed-offset field writes — no (de)serialization
            write_at = self.store.write_at
            if mode is not None:
                old = FILE_ACCESS.perm(a)[0]
                new_mode = (old & ~0o7777) | (mode & 0o7777)
                write_at(akey, _A_MODE.offset, _A_MODE.pack(new_mode))
            if uid is not None:
                write_at(akey, _A_UID.offset, _A_UID.pack(uid))
            if gid is not None:
                write_at(akey, _A_GID.offset, _A_GID.pack(gid))
            write_at(akey, _A_CTIME.offset, _A_CTIME.pack(now_s))
        else:
            buf = self._get_coupled(key)
            if buf is None:
                raise NoEntry(name)
            a, _ = self._split_coupled(buf)
            self._check_owner(a, cred, name)
            if mode is not None:
                old = FILE_COUPLED.read(buf, "mode")
                buf = FILE_COUPLED.write(buf, "mode", (old & ~0o7777) | (mode & 0o7777))
            if uid is not None:
                buf = FILE_COUPLED.write(buf, "uid", uid)
            if gid is not None:
                buf = FILE_COUPLED.write(buf, "gid", gid)
            buf = FILE_COUPLED.write(buf, "ctime", now_s)
            self._put_coupled(key, buf)

    def op_truncate(self, dir_uuid: int, name: str, size: int, now_s: float) -> None:
        """truncate: touches only the content part (Table 1)."""
        if self.track_touches:
            self._touch("truncate", "content")
        key = dir_uuid.to_bytes(8, "big") + name.encode("utf-8")  # == fkey
        if self.decoupled:
            ckey = _C + key
            c = self.store.get(ckey)
            if c is None:
                raise NoEntry(name)
            self.store.write_at(ckey, _C_SIZE.offset, _C_SIZE.pack(size))
            self.store.write_at(ckey, _C_MTIME.offset, _C_MTIME.pack(now_s))
        else:
            buf = self._get_coupled(key)
            if buf is None:
                raise NoEntry(name)
            buf = FILE_COUPLED.write(buf, "size", size)
            buf = FILE_COUPLED.write(buf, "mtime", now_s)
            self._put_coupled(key, buf)

    def op_write_meta(self, dir_uuid: int, name: str, end_offset: int, now_s: float) -> dict:
        """Metadata side of a write: extend size, bump mtime (content part).

        Returns what the client needs to place data blocks: uuid and bsize
        (§3.3.2 — blocks are addressed by uuid + blk_num, there is no
        per-block index to update).
        """
        if self.track_touches:
            self._touch("write", "content")
        key = fkey(dir_uuid, name)
        if self.decoupled:
            ckey = _C + key
            c = self.store.get(ckey)
            if c is None:
                raise NoEntry(name)
            size = FILE_CONTENT.read(c, "size")
            if end_offset > size:
                self.store.write_at(ckey, _C_SIZE.offset, _C_SIZE.pack(end_offset))
                size = end_offset
            self.store.write_at(ckey, _C_MTIME.offset, _C_MTIME.pack(now_s))
            return {"uuid": FILE_CONTENT.read(c, "suuid"),
                    "bsize": FILE_CONTENT.read(c, "bsize"), "size": size}
        buf = self._get_coupled(key)
        if buf is None:
            raise NoEntry(name)
        size = max(FILE_COUPLED.read(buf, "size"), end_offset)
        buf = FILE_COUPLED.write(buf, "size", size)
        buf = FILE_COUPLED.write(buf, "mtime", now_s)
        self._put_coupled(key, buf)
        return {"uuid": FILE_COUPLED.read(buf, "suuid"),
                "bsize": FILE_COUPLED.read(buf, "bsize"), "size": size}

    def op_read_meta(self, dir_uuid: int, name: str, now_s: float) -> dict:
        """Metadata side of a read: atime bump + size/uuid (content part)."""
        if self.track_touches:
            self._touch("read", "content")
        key = fkey(dir_uuid, name)
        if self.decoupled:
            ckey = _C + key
            c = self.store.get(ckey)
            if c is None:
                raise NoEntry(name)
            self.store.write_at(ckey, _C_ATIME.offset, _C_ATIME.pack(now_s))
            return {"uuid": FILE_CONTENT.read(c, "suuid"),
                    "bsize": FILE_CONTENT.read(c, "bsize"),
                    "size": FILE_CONTENT.read(c, "size")}
        buf = self._get_coupled(key)
        if buf is None:
            raise NoEntry(name)
        buf = FILE_COUPLED.write(buf, "atime", now_s)
        self._put_coupled(key, buf)
        return {"uuid": FILE_COUPLED.read(buf, "suuid"),
                "bsize": FILE_COUPLED.read(buf, "bsize"),
                "size": FILE_COUPLED.read(buf, "size")}

    def op_remove(self, dir_uuid: int, name: str, cred: Credentials) -> dict:
        """unlink: touches access + content + dirent (Table 1 'remove')."""
        if self.track_touches:
            self._touch("remove", "access", "content", "dirent")
        key = fkey(dir_uuid, name)
        a, c = self._load(key)
        self._check_owner(a, cred, name)
        if self.decoupled:
            self.store.delete(_A + key)
            self.store.delete(_C + key)
        else:
            self.store.delete(_F + key)
        ekey = _E + dir_uuid.to_bytes(8, "big")
        buf = self.store.get(ekey) or b""
        newbuf, _ = dirent.remove_entry(buf, name)
        self.store.put(ekey, newbuf)
        self._nfiles -= 1
        if len(c) != _C_LEN:
            FILE_CONTENT.check(c)
        return {"uuid": _C_SUUID.unpack_from(c, _C_SUUID.offset)[0],
                "size": _C_SIZE.unpack_from(c, _C_SIZE.offset)[0]}

    def op_exists(self, dir_uuid: int, name: str) -> bool:
        """Cheap existence probe (used by the client's rename path)."""
        key = fkey(dir_uuid, name)
        return self.store.get((_A if self.decoupled else _F) + key) is not None

    # -- directory support ------------------------------------------------------------
    def op_readdir(self, dir_uuid: int) -> bytes:
        """The dirents of this directory's files that live on this FMS."""
        if self.track_touches:
            self._touch("readdir", "dirent")
        return self.store.get(_E + dir_uuid.to_bytes(8, "big")) or b""

    def op_has_files(self, dir_uuid: int) -> bool:
        """rmdir support: does this FMS hold any file of the directory?"""
        # a dirent list with any bytes in it holds at least one entry
        return bool(self.store.get(_E + dir_uuid.to_bytes(8, "big")))

    # -- f-rename support (§3.4.2) -------------------------------------------------------
    def op_export_remove(self, dir_uuid: int, name: str, cred: Credentials) -> dict:
        """First half of a cross-FMS f-rename: detach and return the inode.

        The file's uuid is preserved, so its data blocks never move.
        """
        if self.track_touches:
            self._touch("rename", "access", "content", "dirent")
        key = fkey(dir_uuid, name)
        a, c = self._load(key)
        self._check_owner(a, cred, name)
        if self.decoupled:
            self.store.delete(_A + key)
            self.store.delete(_C + key)
        else:
            self.store.delete(_F + key)
        ekey = _E + dir_uuid.to_bytes(8, "big")
        buf = self.store.get(ekey) or b""
        newbuf, _ = dirent.remove_entry(buf, name)
        self.store.put(ekey, newbuf)
        self._nfiles -= 1
        return {"access": a, "content": c}

    def op_import(self, dir_uuid: int, name: str, access: bytes, content: bytes,
                  cred: Credentials | None = None) -> dict | None:
        """Second half of a cross-FMS f-rename: attach an exported inode.

        With ``cred`` the import replaces a durable destination (POSIX
        rename): the owner check runs before anything is mutated, and the
        replaced file's ``{"uuid", "size"}`` comes back so the client can
        delete its data blocks.  Without ``cred`` it never replaces
        (``Exists``): the client's rollback, which puts an inode back on
        its source.  Finding its own inode (the same uuid: a retry whose
        first attempt applied) it changes nothing and replaces nothing.
        """
        if self.track_touches:
            self._touch("rename", "access", "content", "dirent")
        key = fkey(dir_uuid, name)
        if self.decoupled:
            a = self.store.get(_A + key)
            c = self.store.get(_C + key) if a is not None else None
        else:
            buf = self._get_coupled(key)
            a, c = self._split_coupled(buf) if buf is not None else (None, None)
        uuid = FILE_CONTENT.read(content, "suuid")
        replaced = None
        if a is not None:
            old_uuid = FILE_CONTENT.read(c, "suuid")
            if old_uuid == uuid:
                return None
            if cred is None:
                raise Exists(name)
            self._check_owner(a, cred, name)
            replaced = {"uuid": old_uuid, "size": FILE_CONTENT.read(c, "size")}
        self._store_both(key, access, content)
        ekey = _E + dir_uuid.to_bytes(8, "big")
        entry = dirent.pack_entry(name, uuid, FileType.FILE)
        if replaced is None:
            self.store.append(ekey, entry)
            self._nfiles += 1
        else:
            # the dirent carries the uuid: the replaced file's entry goes
            buf, _ = dirent.remove_entry(self.store.get(ekey) or b"", name)
            self.store.put(ekey, buf + entry)
        return replaced

    def op_rename_local(self, sdir_uuid: int, sname: str, ddir_uuid: int,
                        dname: str, cred: Credentials) -> dict:
        """Same-server f-rename in one request (the LocoFS-A flush path).

        Applies the exact sequence the synchronous client drives over the
        wire — detach the source, attach it under the new key, replacing
        a durable destination, and put it back if that fails — so a
        deferred rename leaves the identical state, and a missing source
        leaves the destination alone.  Returns the replaced destination's
        ``{"uuid", "size"}`` (or ``None``) so the flushing client can
        delete its data blocks, just as the sync path does.
        """
        inode = self.op_export_remove(sdir_uuid, sname, cred)
        try:
            replaced = self.op_import(ddir_uuid, dname, inode["access"],
                                      inode["content"], cred)
        except FSError:
            self.op_import(sdir_uuid, sname, inode["access"], inode["content"])
            raise
        return {"replaced": replaced}

    # -- batched apply (the write-behind flush, LocoFS-B and -A) --------------------------
    def op_apply_batch(self, entries: tuple) -> list:
        """Apply a mixed sequence of deferred metadata updates in order.

        Each entry is a tagged tuple whose tail matches the corresponding
        single-op signature:

        * ``("create", dir_uuid, name, mode, cred, now_s, bsize)``
        * ``("setattr", dir_uuid, name, cred, now_s, mode, uid, gid)``
        * ``("unlink", dir_uuid, name, cred)``
        * ``("unlink_opt", dir_uuid, name, cred)`` — remove-if-exists, the
          annihilation form (a deferred create cancelled by a later unlink
          still has to clear any durable same-name file)
        * ``("rename_local", sdir_uuid, sname, ddir_uuid, dname, cred)``

        Results are positional: ``{"uuid": n}`` or ``{"err": "Exists",
        "arg": name}`` for creates, ``{"ok": True}`` for setattr,
        ``{"removed": {...} | None}`` for the unlink forms,
        ``{"replaced": ...}`` for renames, and ``{"err": type, "arg": path}``
        (the error's own path, often a bare name) for any entry that
        failed — ``"InvalidArgument"`` for a create whose name the dirent
        encoding cannot hold.  A failing entry never aborts the batch —
        the client sorts deferred errors out at the flush boundary.

        The client queue preserves per-key dependency order, so entries
        must apply in sequence — except *contiguous* runs of creates,
        which are safe to hand to :meth:`op_create_batch` for its full
        amortization (multi_get probes, one uuid ceiling, one multi_put,
        coalesced dirent appends) and exactly-once replay handling.  The
        engine runs the whole request under :meth:`group_commit`, so the
        mixed batch is still one WAL fsync.
        """
        n = len(entries)
        results: list = [None] * n
        creates = 0
        i = 0
        while i < n:
            e = entries[i]
            kind = e[0]
            if kind == "create":
                j = i + 1
                while j < n and entries[j][0] == "create":
                    j += 1
                # the tagged run as it arrived (op_create_batch reads the
                # fields from the end)
                try:
                    runs = ((i, self.op_create_batch(entries[i:j])["uuids"]),)
                except InvalidArgument:
                    # a bad name, refused before the run changed anything:
                    # apply the run entry by entry (what a batch is, see
                    # TestApplyBatchIsEntryByEntry), the bad ones refused
                    runs = []
                    for k in range(i, j):
                        try:
                            runs.append((k, self.op_create_batch(entries[k:k + 1])["uuids"]))
                        except InvalidArgument as err:
                            results[k] = {"err": "InvalidArgument", "arg": err.path}
                            creates -= 1  # a record op_create_batch did not count
                for start, uuids in runs:
                    for k, uuid in enumerate(uuids, start):
                        results[k] = ({"uuid": uuid} if uuid is not None
                                      else {"err": "Exists", "arg": entries[k][2]})
                creates += j - i
                i = j
                continue
            try:
                if kind == "setattr":
                    self.op_setattr(e[1], e[2], e[3], e[4],
                                    mode=e[5], uid=e[6], gid=e[7])
                    results[i] = {"ok": True}
                elif kind == "unlink":
                    results[i] = {"removed": self.op_remove(e[1], e[2], e[3])}
                elif kind == "unlink_opt":
                    try:
                        removed = self.op_remove(e[1], e[2], e[3])
                    except NoEntry:
                        removed = None
                    results[i] = {"removed": removed}
                elif kind == "rename_local":
                    results[i] = self.op_rename_local(e[1], e[2], e[3], e[4], e[5])
                else:
                    raise InvalidArgument(f"unknown batched op {kind!r}")
            except FSError as err:
                results[i] = {"err": type(err).__name__, "arg": err.path}
            i += 1
        if n > creates:  # op_create_batch counted its own records
            self.counters.inc("batch.records", n - creates)
        return results

    # -- introspection --------------------------------------------------------------------
    def num_files(self) -> int:
        """File count straight off the backing dict, charged to no meter:
        introspection and recovery bookkeeping, not a simulated operation."""
        prefix = _A if self.decoupled else _F
        return sum(1 for k in self.store._data if k.startswith(prefix))

    def num_files_fast(self) -> int:
        """O(1) file count from the maintained counter.

        Scan-free, so large-namespace benchmarks can verify a build
        without an O(N) sweep; agrees with :meth:`num_files` whenever the
        server is up (it is recomputed from the store on restart).
        """
        return self._nfiles
