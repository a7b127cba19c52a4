"""POSIX-style permission checks.

The paper's single-DMS design exists partly so that "file or directory
accesses need to check the ACL capacity of its ancestors" can happen on
one server with one network request (§3.1).  The DMS walks a path's
ancestors with *local* KV gets and applies these checks.
"""

from __future__ import annotations

from repro.common.types import Credentials, R_OK, W_OK, X_OK

__all__ = ["R_OK", "W_OK", "X_OK", "may_access", "check_ancestor_exec"]


def may_access(mode: int, uid: int, gid: int, cred: Credentials, want: int) -> bool:
    """True if ``cred`` has all permission bits in ``want`` on an object."""
    if cred.uid == 0:  # ``cred.is_root``, without the property call
        return True
    if cred.uid == uid:
        perm = (mode >> 6) & 7
    elif cred.gid == gid:
        perm = (mode >> 3) & 7
    else:
        perm = mode & 7
    return (perm & want) == want


def check_ancestor_exec(dirs: list[tuple[int, int, int]], cred: Credentials) -> bool:
    """True if every ancestor (mode, uid, gid) grants search (X) permission."""
    return all(may_access(mode, uid, gid, cred, X_OK) for mode, uid, gid in dirs)
