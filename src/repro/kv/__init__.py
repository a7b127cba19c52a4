"""Key-value store substrate: LSM-tree, B+-tree and hash stores.

These are the stand-ins for LevelDB and Kyoto Cabinet (TreeDB / HashDB)
that the paper's metadata servers sit on, written from scratch so that the
metadata organization can be exercised end-to-end.
"""

from .api import KVStore, prefix_upper_bound
from .bloom import BloomFilter
from .btree import BTreeStore
from .hashdb import HashStore
from .lsm import LSMStore
from .meter import CostPolicy, Meter, NullMeter
from .sstable import SSTable, SSTableBuilder
from .wal import WriteAheadLog

__all__ = [
    "KVStore",
    "BloomFilter",
    "BTreeStore",
    "HashStore",
    "LSMStore",
    "CostPolicy",
    "Meter",
    "NullMeter",
    "SSTable",
    "SSTableBuilder",
    "WriteAheadLog",
    "prefix_upper_bound",
]


def make_store(kind: str, meter: Meter | None = None, **kwargs) -> KVStore:
    """Factory used by server configs ("lsm", "btree", "hash")."""
    if kind == "lsm":
        return LSMStore(meter=meter, **kwargs)
    if kind == "btree":
        return BTreeStore(meter=meter, **kwargs)
    if kind == "hash":
        return HashStore(meter=meter, **kwargs)
    raise ValueError(f"unknown store kind: {kind!r}")
