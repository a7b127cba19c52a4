"""LocoFS core: the paper's primary contribution.

* :class:`~repro.core.fs.LocoFS` — the one deployment builder
* :class:`~repro.core.client.LocoClient` — client library (``locolib``)
* :class:`~repro.core.dms.DirectoryMetadataServer` — single DMS
* :class:`~repro.core.fms.FileMetadataServer` — hashed FMS servers
* :class:`~repro.core.objectstore.ObjectStoreServer` — data blocks
"""

from .client import LocoClient
from .dms import DirectoryMetadataServer
from .fms import FileMetadataServer
from .fs import LocoFS
from .objectstore import BlockPlacement, ObjectStoreServer

__all__ = [
    "LocoClient",
    "DirectoryMetadataServer",
    "FileMetadataServer",
    "LocoFS",
    "BlockPlacement",
    "ObjectStoreServer",
]
