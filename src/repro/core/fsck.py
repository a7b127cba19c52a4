"""Namespace consistency checker (fsck) for LocoFS.

The flattened directory tree stores each object's dirent *with* the
object, so global invariants tie four record families together.  ``fsck``
walks every store in a deployment and verifies:

I1. every d-inode's parent directory exists (no orphan directories);
I2. every d-inode (except root) appears exactly once in its parent's
    subdir dirent list on the DMS, with the matching uuid;
I3. every subdir dirent points at an existing d-inode (no dangling);
I4. every file's access part has a matching content part and vice versa;
I5. every file appears exactly once in the file dirent list of the FMS it
    lives on, with the matching uuid;
I6. every file dirent points at an existing file record on the same FMS;
I7. every file's FMS is the one consistent hashing prescribes
    (placement invariant — f-rename must move records correctly);
I8. the DMS's in-memory ACL mirror agrees with the durable store;
I9. every data block belongs to a live file uuid (no leaked blocks);
I10. every file uuid names one file (a rename interrupted after its
     import can leave a second name, whose unlink deletes the blocks
     both names share);
I11. no data block lies at or past its file's size, and none runs past
     it (unlink and truncate name a file's blocks from its size, so a
     block outside it would never be deleted, and a hole would read it).

Used by the failure-injection tests and exposed as
``repro.core.fsck.check(fs)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common import pathutil
from repro.metadata import dirent as de
from repro.metadata.chash import ConsistentHashRing, file_placement_key
from repro.metadata.layout import DIR_INODE, FILE_CONTENT, FILE_COUPLED

_I = b"I:"
_E = b"E:"
_A = b"A:"
_C = b"C:"
_F = b"F:"


@dataclass
class FsckReport:
    """Outcome of a consistency check."""

    errors: list[str] = field(default_factory=list)
    directories: int = 0
    files: int = 0
    blocks: int = 0

    @property
    def clean(self) -> bool:
        return not self.errors

    def add(self, msg: str) -> None:
        self.errors.append(msg)

    def __str__(self) -> str:  # pragma: no cover - debug aid
        status = "clean" if self.clean else f"{len(self.errors)} error(s)"
        return (f"fsck: {status}; {self.directories} dirs, {self.files} files, "
                f"{self.blocks} blocks")


def check(fs) -> FsckReport:
    """Run all invariants against a :class:`repro.core.fs.LocoFS` deployment."""
    report = FsckReport()
    dms = fs.dms

    # -- collect DMS state -------------------------------------------------------
    dir_inodes: dict[str, int] = {}  # path -> uuid
    subdir_dirents: dict[int, bytes] = {}  # dir uuid -> dirent buf
    for key, value in dms.store.items():
        if key.startswith(_I):
            path = key[len(_I):].decode()
            dir_inodes[path] = DIR_INODE.read(value, "uuid")
        elif key.startswith(_E):
            subdir_dirents[int.from_bytes(key[len(_E):], "big")] = value
    report.directories = len(dir_inodes)

    # I1 + I2: parents exist; each dir is linked once with the right uuid
    uuid_by_path = dict(dir_inodes)
    for path, uuid in dir_inodes.items():
        if path == "/":
            continue
        parent, name = pathutil.split(path)
        if parent not in uuid_by_path:
            report.add(f"I1: orphan directory {path!r}: parent missing")
            continue
        pbuf = subdir_dirents.get(uuid_by_path[parent])
        if pbuf is None:
            report.add(f"I2: parent of {path!r} has no dirent list")
            continue
        hits = [e for e in de.iter_entries(pbuf) if e.name == name]
        if len(hits) != 1:
            report.add(f"I2: {path!r} linked {len(hits)} times in parent")
        elif hits[0].uuid != uuid:
            report.add(f"I2: {path!r} dirent uuid {hits[0].uuid} != inode uuid {uuid}")

    # I3: every subdir dirent resolves
    paths_by_uuid = {u: p for p, u in dir_inodes.items()}
    for dir_uuid, buf in subdir_dirents.items():
        holder = paths_by_uuid.get(dir_uuid)
        if holder is None:
            report.add(f"I3: dirent list for unknown directory uuid {dir_uuid}")
            continue
        for e in de.iter_entries(buf):
            child = pathutil.join(holder, e.name)
            if child not in dir_inodes:
                report.add(f"I3: dangling subdir dirent {child!r}")
            elif dir_inodes[child] != e.uuid:
                report.add(f"I3: subdir dirent uuid mismatch for {child!r}")

    # -- per-FMS checks -----------------------------------------------------------
    ring = ConsistentHashRing(nodes=fs.fms_names)
    #: live file uuid -> (size, bsize)
    live_files: dict[int, tuple[int, int]] = {}
    for fms_name, fms in zip(fs.fms_names, fs.fms):
        access_keys: set[bytes] = set()
        content_keys: set[bytes] = set()
        coupled_keys: set[bytes] = set()
        fdirents: dict[int, bytes] = {}
        for key, value in fms.store.items():
            if key.startswith(_A):
                access_keys.add(key[len(_A):])
            elif key.startswith(_C):
                content_keys.add(key[len(_C):])
            elif key.startswith(_F):
                coupled_keys.add(key[len(_F):])
            elif key.startswith(_E):
                fdirents[int.from_bytes(key[len(_E):], "big")] = value
        if fms.decoupled:
            # I4: paired parts
            for k in access_keys ^ content_keys:
                report.add(f"I4: unpaired file parts on {fms_name}: {k!r}")
            file_keys = access_keys & content_keys
        else:
            file_keys = coupled_keys
        report.files += len(file_keys)

        dirent_names: dict[int, dict[str, int]] = {}
        for dir_uuid, buf in fdirents.items():
            dirent_names[dir_uuid] = {e.name: e.uuid for e in de.iter_entries(buf)}

        for fkey_ in file_keys:
            dir_uuid = int.from_bytes(fkey_[:8], "big")
            fname = fkey_[8:].decode()
            # I5: exactly one dirent, matching uuid
            names = dirent_names.get(dir_uuid, {})
            if fname not in names:
                report.add(f"I5: file {fname!r} (dir {dir_uuid}) missing dirent on {fms_name}")
            else:
                cbuf = fms.store.get((_C if fms.decoupled else _F) + fkey_)
                layout = FILE_CONTENT if fms.decoupled else FILE_COUPLED
                fuuid = layout.read(cbuf, "suuid")
                if fuuid in live_files:
                    report.add(f"I10: uuid {fuuid} names a second file, {fname!r} on {fms_name}")
                live_files[fuuid] = (layout.read(cbuf, "size"), layout.read(cbuf, "bsize"))
                if names[fname] != fuuid:
                    report.add(f"I5: dirent uuid mismatch for {fname!r} on {fms_name}")
            # I7: placement
            expected = ring.lookup(file_placement_key(dir_uuid, fname))
            if expected != fms_name:
                report.add(f"I7: {fname!r} (dir {dir_uuid}) on {fms_name}, "
                           f"hashing says {expected}")
        # I6: dirents resolve to files on this FMS
        for dir_uuid, names in dirent_names.items():
            for fname in names:
                k = dir_uuid.to_bytes(8, "big") + fname.encode()
                present = (k in access_keys) if fms.decoupled else (k in coupled_keys)
                if not present:
                    report.add(f"I6: dangling file dirent {fname!r} on {fms_name}")

    # I8: DMS in-memory mirror agrees with the store
    mirror = dms._meta
    if set(mirror) != set(dir_inodes):
        missing = set(dir_inodes) ^ set(mirror)
        report.add(f"I8: mirror/store path sets differ: {sorted(missing)[:5]}")
    else:
        for path, (mode, uid, gid, uuid) in mirror.items():
            buf = dms.store.get(_I + path.encode())
            if (*DIR_INODE.perm(buf), DIR_INODE.read(buf, "uuid")) != (mode, uid, gid, uuid):
                report.add(f"I8: mirror disagrees with store for {path!r}")

    # I9 + I11: every block belongs to a live file and lies inside its size
    for obj in fs.object_servers:
        for key, value in obj.store.items():
            report.blocks += 1
            uuid = int.from_bytes(key[:8], "big")
            if uuid not in live_files:
                report.add(f"I9: leaked block for dead uuid {uuid} on obj{obj.sid}")
                continue
            size, bsize = live_files[uuid]
            blk = int.from_bytes(key[8:], "big")
            start = blk * bsize
            if start >= size or start + len(value) > size:
                report.add(f"I11: block {blk} of uuid {uuid} on obj{obj.sid} holds "
                           f"bytes {start}..{start + len(value)}, "
                           f"past the file's size {size}")

    return report
