"""Path manipulation helpers.

All systems in this repository address the namespace with absolute,
normalized POSIX-style paths ("/", "/a/b").  The DMS keys its B+-tree by the
full path string (paper §3.1), so normalization must be canonical: no
trailing slash (except root), no empty or dot components.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InvalidArgument

SEP = "/"
ROOT = "/"
MAX_NAME = 255
MAX_DEPTH = 4096

#: memo bound for normalize/split — large enough to hold a benchmark's
#: working set of paths, small enough that a namespace sweep cannot pin
#: unbounded memory
_MEMO_SIZE = 4096


@lru_cache(maxsize=_MEMO_SIZE)
def normalize(path: str) -> str:
    """Return the canonical absolute form of ``path``.

    Raises :class:`InvalidArgument` for relative paths, embedded NULs,
    over-long names, or ``.``/``..`` components (the client libraries the
    paper targets resolve those before issuing RPCs).

    Memoized (bounded LRU): every client-side operation normalizes its
    argument paths, and workloads revisit the same paths constantly.
    ``lru_cache`` does not cache exceptions, so invalid paths raise on
    every call.
    """
    if not path or path[0] != SEP:
        raise InvalidArgument(path, f"path must be absolute: {path!r}")
    # fast path: a short path with no empty component, no component that
    # starts with "." (every "." / ".." component appears as "/."), and no
    # trailing slash is already canonical.  len <= MAX_NAME also bounds
    # every name and the depth, and "\x00" is checked like the slow path.
    if (len(path) <= MAX_NAME and "//" not in path and "/." not in path
            and "\x00" not in path):
        if path == ROOT:
            return ROOT
        if path[-1] != SEP:
            return path
    if "\x00" in path:
        raise InvalidArgument(path, "path contains NUL byte")
    parts = [p for p in path.split(SEP) if p != ""]
    for p in parts:
        if p in (".", ".."):
            raise InvalidArgument(path, "relative components not supported")
        if len(p) > MAX_NAME:
            raise InvalidArgument(path, f"name too long: {p[:16]}...")
    if len(parts) > MAX_DEPTH:
        raise InvalidArgument(path, "path too deep")
    if not parts:
        return ROOT
    return SEP + SEP.join(parts)


@lru_cache(maxsize=_MEMO_SIZE)
def split(path: str) -> tuple[str, str]:
    """Split a normalized path into ``(parent, name)``.

    The root directory splits into ``("/", "")``.  Memoized like
    :func:`normalize` (the result tuple is immutable and safe to share).
    """
    path = normalize(path)
    if path == ROOT:
        return ROOT, ""
    idx = path.rfind(SEP)
    parent = path[:idx] or ROOT
    return parent, path[idx + 1 :]


def split_fast(path: str) -> tuple[str, str]:
    """:func:`split`, bypassing the memo for already-canonical paths.

    Unique-path hot loops (namespace builds, per-file create storms) never
    revisit a path, so for them the ``lru_cache`` layers of
    :func:`normalize`/:func:`split` are pure overhead: every call pays a
    miss *plus* an eviction.  This helper answers canonical paths with one
    scan and a slice and defers everything else — root, trailing slash,
    dot components, over-long or invalid paths — to :func:`split`, so the
    result (and every raised error) is identical.
    """
    if (0 < len(path) <= MAX_NAME and path[0] == SEP and path[-1] != SEP
            and "//" not in path and "/." not in path
            and "\x00" not in path):
        idx = path.rfind(SEP)
        return path[:idx] or ROOT, path[idx + 1:]
    return split(path)


def parent_of(path: str) -> str:
    return split(path)[0]


def join(parent: str, name: str) -> str:
    parent = normalize(parent)
    if not name:
        return parent
    if parent == ROOT:
        return ROOT + name
    return parent + SEP + name


def components(path: str) -> list[str]:
    """All path components, e.g. ``/a/b/c`` -> ``["a", "b", "c"]``."""
    path = normalize(path)
    if path == ROOT:
        return []
    return path[1:].split(SEP)


def ancestors(path: str) -> list[str]:
    """All ancestor directories from root down to the parent.

    ``/a/b/c`` -> ``["/", "/a", "/a/b"]``.  Used for ACL checks at the DMS.
    """
    path = normalize(path)
    if path == ROOT:
        return []
    out = [ROOT]
    acc = ""
    parts = components(path)
    for p in parts[:-1]:
        acc += SEP + p
        out.append(acc)
    return out


def is_ancestor(maybe_ancestor: str, path: str) -> bool:
    """True if ``maybe_ancestor`` is a strict ancestor directory of ``path``."""
    a = normalize(maybe_ancestor)
    p = normalize(path)
    if a == p:
        return False
    if a == ROOT:
        return True
    return p.startswith(a + SEP)


def dir_key_prefix(path: str) -> str:
    """Prefix under which every descendant *directory* key of ``path`` sorts.

    The DMS stores directory inodes keyed by full path in a B+-tree; all
    descendants of ``/a`` share the prefix ``/a/`` (paper §3.4.3), which is
    what makes d-rename a contiguous prefix move.
    """
    path = normalize(path)
    return path if path == ROOT else path + SEP
