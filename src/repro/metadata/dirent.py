"""Directory-entry codec (paper §3.2.1).

In the flattened directory tree, a directory's entries are not stored as
directory data blocks.  Instead, each metadata server keeps — per
directory — one concatenated value holding the dirents of the children
*it* is responsible for: the DMS concatenates a directory's
sub-directories, and each FMS concatenates the directory's files that hash
to it.  The value is keyed by ``directory_uuid``.

Entry wire format: ``[u16 name_len][name utf-8][u64 uuid][u8 type]``.

Servers never decode the list.  ``contains``, ``remove_entry`` and
``count_entries`` work on the packed bytes: an entry is found by its
encoded ``[u16 name_len][name]`` prefix on an entry boundary and removed
with one splice, so the result is byte-identical to re-packing the
survivors.  Only readers that need the names (client ``readdir``, fsck)
pay for ``iter_entries``.  A non-empty list holds at least one entry
(≥ 12 bytes), so emptiness is ``not buf``.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator

from repro.common.types import DirEntry, FileType

#: the parts of an entry around its name.  Public for a server that has
#: already encoded and checked the name (``FileMetadataServer.op_create``):
#: ``HEAD.pack(len(raw)) + raw + TAIL.pack(uuid, ftype)`` is ``pack_entry``
#: minus a second encode and check
HEAD = struct.Struct("<H")
TAIL = struct.Struct("<QB")
#: longest storable name, in UTF-8 bytes (the u16 length field)
MAX_NAME_BYTES = 0xFFFF
#: bytes of an entry besides its name: u16 length + u64 uuid + u8 type
_FIXED = HEAD.size + TAIL.size
#: type byte -> FileType by index (an enum call per entry costs ~10x this)
_FTYPES = (None, FileType.FILE, FileType.DIRECTORY)


def pack_entry(name: str, uuid: int, ftype: FileType) -> bytes:
    raw = name.encode("utf-8")
    if not raw or len(raw) > MAX_NAME_BYTES:
        raise ValueError(f"bad dirent name: {name!r}")
    return HEAD.pack(len(raw)) + raw + TAIL.pack(uuid, int(ftype))


def iter_entries(buf: bytes) -> Iterator[DirEntry]:
    off = 0
    n = len(buf)
    while off < n:
        (nlen,) = HEAD.unpack_from(buf, off)
        off += HEAD.size
        name = buf[off : off + nlen].decode("utf-8")
        off += nlen
        uuid, ftype = TAIL.unpack_from(buf, off)
        off += TAIL.size
        yield DirEntry(name, uuid, _FTYPES[ftype])


def _locate(buf: bytes, name: str) -> int:
    """Offset of the first entry called ``name``, or -1.

    ``bytes.find`` proposes candidates at C speed; a candidate counts only
    if it sits on an entry boundary, which is checked by hopping headers
    from the last known boundary (the same bytes can occur inside a longer
    name, a uuid, or across a type byte and the next header).
    """
    raw = name.encode("utf-8")
    nlen = len(raw)
    if nlen > MAX_NAME_BYTES:
        return -1
    needle = bytes((nlen & 0xFF, nlen >> 8)) + raw
    off = 0  # always an entry boundary
    at = buf.find(needle)
    while at >= 0:
        while off < at:
            off += _FIXED + (buf[off] | buf[off + 1] << 8)
        if off == at:
            return at
        # (at, off) lies inside one entry: no boundary there
        at = buf.find(needle, off)
    return -1


def contains(buf: bytes, name: str) -> bool:
    return _locate(buf, name) >= 0


def remove_entry(buf: bytes, name: str) -> tuple[bytes, bool]:
    """Return (new_buf, removed); ``buf`` itself when ``name`` is absent."""
    at = _locate(buf, name)
    if at < 0:
        return buf, False
    end = at + _FIXED + (buf[at] | buf[at + 1] << 8)
    return buf[:at] + buf[end:], True


def count_entries(buf: bytes) -> int:
    off = 0
    count = 0
    n = len(buf)
    while off < n:
        off += _FIXED + (buf[off] | buf[off + 1] << 8)
        count += 1
    return count
