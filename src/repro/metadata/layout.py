"""Fixed-length metadata layouts (paper §3.3, Table 1).

LocoFS removes (de)serialization by making every metadata field
fixed-length: a field is read or written *in place* in the value string by
offset arithmetic (§3.3.3).  :class:`FixedLayout` provides exactly that —
``offset``/``size`` expose where a field lives so servers can use the KV
stores' ``read_at``/``write_at`` partial accessors (``field`` hands them
the offset with the field's bound codec, resolved once at import), and
``pack``/``read``/``write`` operate on whole buffers.

The three layouts follow Table 1 of the paper:

* ``DIR_INODE`` — value of a directory key (full path) at the DMS:
  ``ctime, mode, uid, gid, uuid``; 256 bytes are allocated per d-inode
  (§3.2.2).
* ``FILE_ACCESS`` — the *access* part of a file inode at an FMS:
  ``ctime, mode, uid, gid``.
* ``FILE_CONTENT`` — the *content* part: ``mtime, atime, size, bsize,
  suuid, sid`` (``suuid``/``sid`` locate the file's object-store home).

Note: §3.3.1's prose lists ``atime`` in the access part, but Table 1 —
which the evaluation's operation matrix references — puts ``atime`` in the
content part and ``ctime`` in the access part.  We follow Table 1.
"""

from __future__ import annotations

import struct
from collections.abc import Callable
from dataclasses import dataclass


@dataclass(frozen=True)
class _Field:
    name: str
    fmt: str  # single struct format char, little-endian
    offset: int
    size: int
    #: precompiled codec — ``struct.Struct`` caches the format parse, so
    #: the hot pack/unpack path skips re-parsing "<d"/"<Q" on every call
    codec: struct.Struct
    #: the codec's bound ``pack`` / ``unpack_from``, for servers that
    #: resolve a field once at import (:meth:`FixedLayout.field`):
    #: ``pack(v)`` is ``encode_field``'s bytes and ``unpack_from(buf,
    #: offset)[0]`` is ``read``'s value once ``check(buf)`` has passed
    pack: Callable[..., bytes]
    unpack_from: Callable[..., tuple]


class _Fields(dict):
    """Field name -> :class:`_Field`.  An unknown name raises the layout's
    descriptive ``KeyError`` from ``__missing__``, so a lookup is one
    subscript with no wrapper frame."""

    def __init__(self, layout: str):
        super().__init__()
        self.layout = layout

    def __missing__(self, name: str):
        raise KeyError(f"layout {self.layout!r} has no field {name!r}")


class FixedLayout:
    """A named tuple-of-fields with stable offsets inside a byte value."""

    def __init__(self, name: str, fields: list[tuple[str, str]], total_size: int | None = None):
        self.name = name
        self._fields = _Fields(name)
        off = 0
        for fname, fmt in fields:
            codec = struct.Struct("<" + fmt)
            self._fields[fname] = _Field(fname, fmt, off, codec.size, codec,
                                         codec.pack, codec.unpack_from)
            off += codec.size
        self.packed_size = off
        self.total_size = total_size if total_size is not None else off
        if self.total_size < self.packed_size:
            raise ValueError(f"total_size {total_size} smaller than fields ({off})")
        # whole-record fast path: fields are contiguous and "<" means no
        # alignment padding, so one combined Struct produces byte-for-byte
        # what the per-field pack_into loop does
        self._names = tuple(self._fields)
        self._whole = struct.Struct("<" + "".join(fmt for _, fmt in fields))
        self._tail_pad = bytes(self.total_size - self.packed_size)
        if not self._tail_pad:
            # nothing to append: the positional pack *is* the Struct's, so
            # the create paths call straight into C with no Python frame
            self.pack_values = self._whole.pack
        # the permission triple every ACL check reads, as one unpack where
        # mode / uid / gid sit side by side (every inode layout here)
        mode, uid, gid = (self._fields.get(n) for n in ("mode", "uid", "gid"))
        self._perm = None
        if (mode and uid and gid and uid.offset == mode.offset + mode.size
                and gid.offset == uid.offset + uid.size):
            self._perm = struct.Struct("<" + mode.fmt + uid.fmt + gid.fmt)
            self._perm_at = mode.offset

    # -- whole-buffer ------------------------------------------------------------
    def pack(self, **values) -> bytes:
        if len(values) == len(self._names):
            try:
                packed = self._whole.pack(*[values[n] for n in self._names])
            except KeyError:
                self._fields[next(n for n in values if n not in self._fields)]
                raise  # unreachable: the probe above raises
            return packed + self._tail_pad
        buf = bytearray(self.total_size)
        fields = self._fields
        for fname, value in values.items():
            f = fields.get(fname)
            if f is None:
                f = fields[fname]  # raise the descriptive KeyError
            f.codec.pack_into(buf, f.offset, value)
        return bytes(buf)

    def pack_values(self, *values) -> bytes:
        """Positional :meth:`pack` of *every* field, in declaration order
        (see ``field_names``).  The hot creation paths use this to skip the
        kwargs dict; output is byte-identical to ``pack``.  A layout without
        tail padding replaces this method with its bound ``Struct.pack``;
        either way a wrong field count raises ``struct.error``."""
        return self._whole.pack(*values) + self._tail_pad

    def unpack(self, buf: bytes) -> dict:
        return dict(zip(self._names, self.values(buf)))

    def values(self, buf: bytes) -> tuple:
        """Positional :meth:`unpack`: every field's value in declaration
        order (see ``field_names``), decoded by one ``unpack_from`` of the
        whole-record ``Struct``.  A buffer that is not one whole record
        raises ``check``'s ``ValueError``, as ``unpack`` does."""
        if len(buf) != self.total_size:
            self.check(buf)
        return self._whole.unpack_from(buf)

    # -- per-field (the no-deserialization access path) -----------------------------
    def read(self, buf: bytes, field: str):
        if len(buf) != self.total_size:
            self.check(buf)
        f = self._fields[field]
        (value,) = f.codec.unpack_from(buf, f.offset)
        return value

    def perm(self, buf: bytes) -> tuple[int, int, int]:
        """``(mode, uid, gid)`` of ``buf``: the values, and the errors, of
        ``read(buf, "mode")``, ``read(buf, "uid")`` and ``read(buf,
        "gid")``, in one length check and one ``unpack_from`` of the three
        adjacent fields."""
        if len(buf) != self.total_size:
            self.check(buf)
        if self._perm is None:
            return self.read(buf, "mode"), self.read(buf, "uid"), self.read(buf, "gid")
        return self._perm.unpack_from(buf, self._perm_at)

    def write(self, buf: bytes, field: str, value) -> bytes:
        """Return a copy of ``buf`` with ``field`` overwritten in place."""
        self.check(buf)
        f = self._fields[field]
        out = bytearray(buf)
        f.codec.pack_into(out, f.offset, value)
        return bytes(out)

    def encode_field(self, field: str, value) -> bytes:
        """The raw bytes of one field (for ``KVStore.write_at``)."""
        return self._fields[field].codec.pack(value)

    def decode_field(self, field: str, raw: bytes):
        (value,) = self._fields[field].codec.unpack(raw)
        return value

    def offset(self, field: str) -> int:
        return self._fields[field].offset

    def field(self, name: str) -> _Field:
        """One field's descriptor: ``offset``, ``size`` and its codec's
        bound ``pack`` / ``unpack_from``.  Servers resolve the fields they
        write in place, or read alone on a hot path, once at import, so
        each access costs one C call and no layout frame."""
        return self._fields[name]

    def size(self, field: str) -> int:
        return self._fields[field].size

    @property
    def field_names(self) -> list[str]:
        return list(self._fields)

    def check(self, buf: bytes) -> None:
        """Raise ``ValueError`` unless ``buf`` is one whole record."""
        if len(buf) != self.total_size:
            raise ValueError(
                f"{self.name}: buffer is {len(buf)} bytes, expected {self.total_size}"
            )


def joined(*layouts: FixedLayout) -> struct.Struct:
    """One ``Struct`` over records of pad-free layouts stored back to
    back: its ``unpack`` of the concatenated buffers is each layout's
    :meth:`~FixedLayout.values`, concatenated, in one C call."""
    for layout in layouts:
        if layout.total_size != layout.packed_size:
            raise ValueError(f"{layout.name}: a padded record cannot be joined")
    return struct.Struct("<" + "".join(layout._whole.format[1:] for layout in layouts))


# struct codes: d = f64, I = u32, Q = u64
DIR_INODE = FixedLayout(
    "dir_inode",
    [("ctime", "d"), ("mode", "I"), ("uid", "I"), ("gid", "I"), ("uuid", "Q")],
    total_size=256,  # paper §3.2.2: 256 bytes allocated per d-inode
)

FILE_ACCESS = FixedLayout(
    "file_access",
    [("ctime", "d"), ("mode", "I"), ("uid", "I"), ("gid", "I")],
)

FILE_CONTENT = FixedLayout(
    "file_content",
    [
        ("mtime", "d"),
        ("atime", "d"),
        ("size", "Q"),
        ("bsize", "I"),
        ("suuid", "Q"),
        ("sid", "I"),
    ],
)

#: a file's getattr reply codec: the access part's fields, then the content
#: part's, decoded in one C call from the two parts stored back to back
FILE_ATTRS = joined(FILE_ACCESS, FILE_CONTENT)

#: the coupled (LocoFS-CF / IndexFS-style) whole-inode layout used by the
#: Fig. 11 ablation: one value holding every field of both parts.
FILE_COUPLED = FixedLayout(
    "file_coupled",
    [
        ("ctime", "d"),
        ("mode", "I"),
        ("uid", "I"),
        ("gid", "I"),
        ("mtime", "d"),
        ("atime", "d"),
        ("size", "Q"),
        ("bsize", "I"),
        ("suuid", "Q"),
        ("sid", "I"),
        # stand-in for the variable-length indexing metadata a traditional
        # inode carries (block pointers); LocoFS removes it (§3.3.2)
        ("index_blob", "128s"),
    ],
)
