"""repro — a reproduction of LocoFS (SC'17).

LocoFS is a distributed file system with a loosely-coupled metadata
service: one Directory Metadata Server (DMS) keyed by full path in a
B+-tree KV store, many File Metadata Servers (FMS) reached by consistent
hashing, a flattened directory tree (backward dirents), and file metadata
decoupled into fixed-length access/content parts.

Quickstart::

    from repro import LocoFS, ClusterConfig

    fs = LocoFS(ClusterConfig(num_metadata_servers=4))
    client = fs.client()
    client.mkdir("/projects")
    client.create("/projects/readme.txt")
    client.write("/projects/readme.txt", 0, b"hello")
    assert client.read("/projects/readme.txt", 0, 5) == b"hello"
"""

from .common import BatchConfig, CacheConfig, ClusterConfig, Credentials, DirectoryConfig

__version__ = "1.0.0"

__all__ = ["LocoFS", "ClusterConfig", "BatchConfig", "CacheConfig", "DirectoryConfig",
           "Credentials", "__version__"]


def __getattr__(name):
    # LocoFS is imported lazily so that `import repro.kv` etc. stay cheap.
    if name == "LocoFS":
        from .core.fs import LocoFS

        return LocoFS
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
