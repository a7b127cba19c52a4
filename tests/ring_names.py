"""File names picked from a deployment's own FMS ring.

A file's metadata lives on the FMS the consistent-hash ring maps
``dir_uuid + name`` to, so which server a test's file lands on is a fact
about the ring, not about the name.  A test whose premise is a placement
(k files on one FMS, a rename across two FMSes, a queue per FMS) picks its
names here, from the client's own ring, and asserts the premise it asked
for.  A change to the ring (its virtual nodes, its hash) then moves the
names a test uses, never the case the test covers.
"""

import itertools


def dir_uuid(fs, client, path: str) -> int:
    """The uuid of directory ``path`` as ``client`` resolves it: from its
    lease cache when the directory is cached there (no RPC, no flush), else
    by one lookup."""
    return fs.engine.run(client._g_dir(path))["uuid"]


def _candidates(prefix: str):
    return (f"{prefix}{i}" for i in itertools.count())


def names_on_one_fms(ring, uuid: int, k: int, prefix: str = "f") -> list[str]:
    """The first ``k`` names ``prefix0, prefix1, ...`` in directory
    ``uuid`` that the ring places on the FMS of ``prefix0``."""
    home = ring.lookup_file(uuid, f"{prefix}0")
    return list(itertools.islice(
        (n for n in _candidates(prefix) if ring.lookup_file(uuid, n) == home), k))


def name_placed(ring, uuid: int, beside: str, same_fms: bool, prefix: str = "y",
                beside_uuid: int | None = None) -> str:
    """The first name ``prefix0, prefix1, ...`` in directory ``uuid`` whose
    FMS is (``same_fms``) or is not the FMS of ``beside``, a name in
    directory ``beside_uuid`` (default: ``uuid``)."""
    home = ring.lookup_file(uuid if beside_uuid is None else beside_uuid, beside)
    return next(n for n in _candidates(prefix)
                if (ring.lookup_file(uuid, n) == home) == same_fms)


def names_by_fms(ring, uuid: int, per_fms: int = 1, prefix: str = "f") -> dict[str, list[str]]:
    """``per_fms`` names for every FMS on the ring, sorted by FMS: the
    lowest-numbered ``prefix0, prefix1, ...`` in directory ``uuid`` that
    the ring places on it."""
    out: dict[str, list[str]] = {node: [] for node in sorted(ring.nodes)}
    short = len(out)
    for name in _candidates(prefix):
        names = out[ring.lookup_file(uuid, name)]
        if len(names) < per_fms:
            names.append(name)
            if len(names) == per_fms:
                short -= 1
                if not short:
                    return out
