"""UUID allocation (paper §3.3.2).

A LocoFS UUID is a 64-bit integer composed of ``sid`` (the id of the server
where the object was first created, high 16 bits) and ``fid`` (a per-server
monotonically increasing counter, low 48 bits).  Because the UUID never
changes after creation, objects indexed *by* UUID (file metadata under a
directory, data blocks of a file) never have to be relocated on rename.
"""

from __future__ import annotations

SID_BITS = 16
FID_BITS = 48
FID_MASK = (1 << FID_BITS) - 1
MAX_SID = (1 << SID_BITS) - 1

ROOT_UUID = 0  # well-known uuid of "/"


def make_uuid(sid: int, fid: int) -> int:
    if not 0 <= sid <= MAX_SID:
        raise ValueError(f"sid out of range: {sid}")
    if not 0 <= fid <= FID_MASK:
        raise ValueError(f"fid out of range: {fid}")
    return (sid << FID_BITS) | fid


def uuid_sid(uuid: int) -> int:
    return uuid >> FID_BITS


def uuid_fid(uuid: int) -> int:
    return uuid & FID_MASK


class UuidAllocator:
    """Per-server UUID allocator.

    ``fid`` starts at 1 so that the composed UUID of (sid=0, first object)
    is never confused with :data:`ROOT_UUID`.
    """

    def __init__(self, sid: int):
        if not 0 <= sid <= MAX_SID:
            raise ValueError(f"sid out of range: {sid}")
        self.sid = sid
        self._next_fid = 1

    def allocate(self) -> int:
        fid = self._next_fid
        self._next_fid += 1
        return make_uuid(self.sid, fid)
