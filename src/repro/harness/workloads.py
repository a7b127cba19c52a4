"""Workload definitions for the mdtest-style harness.

Mirrors the paper's setup (§4.1.2, §4.2.2): every client works in its own
top-level directory (mdtest's unique-working-directory mode), creates a
directory chain of configurable depth, and then performs one operation
type per phase.  Table 3's client counts are reproduced verbatim and used
by the throughput experiments.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass

#: Paper Table 3 — the optimal number of clients per metadata-server count.
TABLE3_CLIENTS: dict[str, dict[int, int]] = {
    "locofs-nc": {1: 30, 2: 50, 4: 70, 8: 120, 16: 144},
    "locofs-c": {1: 30, 2: 50, 4: 70, 8: 130, 16: 144},
    "cephfs": {1: 20, 2: 30, 4: 50, 8: 70, 16: 110},
    "gluster": {1: 20, 2: 30, 4: 50, 8: 70, 16: 110},
    "lustre-d1": {1: 40, 2: 60, 4: 90, 8: 120, 16: 192},
    "lustre-d2": {1: 40, 2: 60, 4: 90, 8: 120, 16: 192},
}


def clients_for(system: str, num_servers: int, scale: float = 1.0) -> int:
    """Table 3 client count for a system/server-count pair, scaled down for
    quick runs.  Systems not in Table 3 reuse the closest row."""
    table = TABLE3_CLIENTS.get(system)
    if table is None:
        if system.startswith("locofs"):
            table = TABLE3_CLIENTS["locofs-c"]
        elif system in ("indexfs", "rawkv"):
            table = TABLE3_CLIENTS["lustre-d1"]
        else:
            table = TABLE3_CLIENTS["cephfs"]
    if num_servers in table:
        n = table[num_servers]
    else:
        nearest = min(table, key=lambda k: abs(k - num_servers))
        n = max(10, int(table[nearest] * num_servers / nearest))
    return max(2, int(round(n * scale)))


class ZipfPicker:
    """Zipf-skewed item picker: ``P(k) ∝ 1 / (k+1)^s`` over ``n`` items.

    Models hot-directory/hot-file popularity (the access skew real
    metadata traces show, and what makes a shared lookup-cache tier pay
    off).  ``s = 0`` degenerates to uniform; typical traces fit
    ``s ≈ 0.8–1.2``.  Deterministic given the seed: the CDF is
    precomputed once and each pick is one ``random()`` + binary search.
    """

    def __init__(self, n: int, s: float, seed: int = 0):
        if n < 1:
            raise ValueError("need n >= 1 items")
        if s < 0:
            raise ValueError("zipf exponent must be >= 0")
        self.n = n
        self.s = s
        weights = [1.0 / (k + 1) ** s for k in range(n)]
        total = sum(weights)
        cdf = []
        acc = 0.0
        for w in weights:
            acc += w / total
            cdf.append(acc)
        cdf[-1] = 1.0  # guard against float drift
        #: the CDF and the seeded draw behind :meth:`pick`: a hot loop may
        #: inline a pick as ``bisect_left(p.cdf, p.random())``
        self.cdf = cdf
        self.random = random.Random(seed).random

    def pick(self) -> int:
        """The next item index (0-based; 0 is the hottest)."""
        return bisect.bisect_left(self.cdf, self.random())


@dataclass(frozen=True)
class Workload:
    """Shape of one mdtest run."""

    #: operations each client performs in the measured phase
    items_per_client: int = 100
    #: directory chain depth below the client's working directory
    depth: int = 1
    #: file mode for created files
    file_mode: int = 0o644

    def client_root(self, cid: int) -> str:
        # top-level per-client directories: this is what lets the
        # subtree-partitioned baselines spread load across their MDSes
        return f"/c{cid:04d}"

    def work_dir(self, cid: int) -> str:
        # not memoized: the drivers resolve it once per client (see
        # ``_OP_CALLS``); an lru_cache keyed on this dataclass paid its
        # generated ``__hash__`` (and ``__eq__``) on every item
        path = self.client_root(cid)
        for level in range(self.depth - 1):
            path += f"/d{level}"
        return path

    def dir_chain(self, cid: int) -> list[str]:
        """All directories (top-down) that must exist for this client."""
        out = [self.client_root(cid)]
        path = out[0]
        for level in range(self.depth - 1):
            path += f"/d{level}"
            out.append(path)
        return out

    def file_path(self, cid: int, n: int) -> str:
        return f"{self.work_dir(cid)}/f{n:06d}"

    def dir_path(self, cid: int, n: int) -> str:
        return f"{self.work_dir(cid)}/m{n:06d}"


#: mdtest op name -> ``(client op, args builder)``, the builder being
#: ``(wl, work_dir, n) -> args``.  A driver resolves the client op's
#: callable and its client's ``wl.work_dir(cid)`` once, so building one
#: call is one frame; the paths are :meth:`Workload.file_path` /
#: :meth:`Workload.dir_path` spelled inline
_OP_CALLS = {
    "touch": ("create", lambda wl, wd, n: (f"{wd}/f{n:06d}", wl.file_mode)),
    "mkdir": ("mkdir", lambda wl, wd, n: (f"{wd}/m{n:06d}", 0o755)),
    "file-stat": ("stat_file", lambda wl, wd, n: (f"{wd}/f{n:06d}",)),
    "dir-stat": ("stat_dir", lambda wl, wd, n: (f"{wd}/m{n:06d}",)),
    "rm": ("unlink", lambda wl, wd, n: (f"{wd}/f{n:06d}",)),
    "rmdir": ("rmdir", lambda wl, wd, n: (f"{wd}/m{n:06d}",)),
    "chmod": ("chmod", lambda wl, wd, n: (f"{wd}/f{n:06d}", 0o600)),
    "chown": ("chown", lambda wl, wd, n: (f"{wd}/f{n:06d}", 1000 + n % 7, 1000)),
    "access": ("access", lambda wl, wd, n: (f"{wd}/f{n:06d}", 4)),
    "truncate": ("truncate", lambda wl, wd, n: (f"{wd}/f{n:06d}", 4096)),
    "open": ("open", lambda wl, wd, n: (f"{wd}/f{n:06d}", 4)),
    "write": ("write", lambda wl, wd, n: (f"{wd}/f{n:06d}", 0, b"x" * 4096)),
    "read": ("read", lambda wl, wd, n: (f"{wd}/f{n:06d}", 0, 4096)),
}
