"""Whole-inode serialization used by the baseline systems.

The traditional systems the paper compares against (IndexFS, CephFS,
Lustre, Gluster) store a file or directory's metadata as *one* serialized
value: every read deserializes the whole record and every update rewrites
it (§2.2.2).  Files additionally carry block-indexing metadata whose size
grows with the file (§3.3.2 — the part LocoFS removes).  This codec
reproduces both properties: a fixed header plus a variable ``index``
region of 8 bytes per block, capped at :data:`MAX_INDEX_BYTES` (an
indirect-block stand-in).
"""

from __future__ import annotations

import struct

from repro.common.types import FileType

#: the fixed header: kind, mode, uid, gid, uuid, ctime, mtime, atime, size,
#: bsize, index_len.  Public for a server that packs a fresh inode
#: positionally (``TreePartitionServer``'s create / mkdir handlers): a new
#: file has size 0, so ``HEADER.pack(..., 0, bsize, 0)`` alone is
#: ``encode_inode`` of it, without the dict and its ``get`` calls
HEADER = struct.Struct("<BIIIQdddQII")
MAX_INDEX_BYTES = 2048
BYTES_PER_BLOCK_PTR = 8


def index_bytes_for(size: int, bsize: int) -> int:
    """Size of the block-pointer region for a file of ``size`` bytes."""
    if size <= 0:
        return 0
    nblocks = (size + bsize - 1) // bsize
    return min(MAX_INDEX_BYTES, nblocks * BYTES_PER_BLOCK_PTR)


def encode_inode(fields: dict) -> bytes:
    """Serialize an inode dict to its value bytes."""
    index_len = 0
    if fields["kind"] == int(FileType.FILE):
        index_len = index_bytes_for(fields.get("size", 0), fields.get("bsize", 4096))
    head = HEADER.pack(
        fields["kind"],
        fields["mode"],
        fields["uid"],
        fields["gid"],
        fields["uuid"],
        fields.get("ctime", 0.0),
        fields.get("mtime", 0.0),
        fields.get("atime", 0.0),
        fields.get("size", 0),
        fields.get("bsize", 4096),
        index_len,
    )
    return head + b"\x00" * index_len


def decode_inode(buf: bytes) -> dict:
    kind, mode, uid, gid, uuid, ctime, mtime, atime, size, bsize, index_len = (
        HEADER.unpack_from(buf, 0)
    )
    return {
        "kind": kind,
        "mode": mode,
        "uid": uid,
        "gid": gid,
        "uuid": uuid,
        "ctime": ctime,
        "mtime": mtime,
        "atime": atime,
        "size": size,
        "bsize": bsize,
    }


def is_dir_inode(fields: dict) -> bool:
    return fields["kind"] == int(FileType.DIRECTORY)
