"""Namespace-to-server placement policies of the baseline systems.

The placement policy is *the* design axis the paper's related-work section
contrasts (directory-based vs hash-based distribution, §5):

* :class:`SubtreePlacement` — CephFS / Lustre DNE1: a directory subtree
  (keyed by its top-level component) lives wholly on one MDS.  Great
  locality (file ops are one RPC deep inside a subtree), no balance.
* :class:`StripedPlacement` — Lustre DNE2: directory entries are striped
  across MDSes by full-path hash; inode and dirent co-locate, but a
  readdir must consult every server.
* :class:`ParentHashPlacement` — IndexFS/GIGA+: everything *inside* a
  directory (child inodes + the dirent list) lives on the directory's
  hash server; a directory's own inode lives with its parent's partition.
* :class:`GlusterPlacement` — GlusterFS DHT: no metadata servers at all;
  directories are replicated on every brick, files hash to one brick by
  (parent, name).
"""

from __future__ import annotations

import hashlib

from repro.common import pathutil


def _h(path: str, n: int) -> int:
    return int.from_bytes(hashlib.blake2b(path.encode(), digest_size=4).digest(), "big") % n


class PlacementBase:
    """A policy defines ``inode_server(path)``, where a path's inode record
    lives, and ``entry_servers(path, parent, name)``, the ``(inode server,
    dirent server)`` pair a create / mkdir / unlink of the child ``path`` ==
    ``parent`` + ``name`` needs (hashed once where the two coincide)."""

    def __init__(self, servers: list[str]):
        self.servers = list(servers)
        self.n = len(servers)

    # where the dirent of child ``name`` inside ``parent`` must be appended
    def dirent_server(self, parent: str, name: str) -> str:
        return self.inode_server(parent)

    # which servers a readdir of ``path`` must consult
    def readdir_servers(self, path: str) -> list[str]:
        return [self.dirent_home(path)]

    # the canonical holder of D:<path> (import target after renames)
    def dirent_home(self, path: str) -> str:
        return self.inode_server(path)

    def all_servers(self) -> list[str]:
        return list(self.servers)


class SubtreePlacement(PlacementBase):
    """CephFS / Lustre DNE1: hash of the top-level path component."""

    def inode_server(self, path: str) -> str:
        path = pathutil.normalize(path)
        if path == "/":
            return self.servers[0]
        top = pathutil.components(path)[0]
        return self.servers[_h(top, self.n)]

    def entry_servers(self, path: str, parent: str, name: str) -> tuple[str, str]:
        # below the root, the child's top component is its parent's
        server = self.inode_server(path)
        return server, (server if parent != "/" else self.servers[0])


class StripedPlacement(PlacementBase):
    """Lustre DNE2: full-path hash; dirents stripe with their child."""

    def inode_server(self, path: str) -> str:
        path = pathutil.normalize(path)
        if path == "/":
            return self.servers[0]
        return self.servers[_h(path, self.n)]

    def dirent_server(self, parent: str, name: str) -> str:
        # the child's dirent co-locates with the child's inode (stripe)
        return self.inode_server(pathutil.join(parent, name))

    def entry_servers(self, path: str, parent: str, name: str) -> tuple[str, str]:
        server = self.inode_server(path)
        return server, server

    def readdir_servers(self, path: str) -> list[str]:
        # entries are striped: every server may hold a slice
        return list(self.servers)


class ParentHashPlacement(PlacementBase):
    """IndexFS/GIGA+: a directory's contents live on hash(directory)."""

    def inode_server(self, path: str) -> str:
        path = pathutil.normalize(path)
        if path == "/":
            return self.servers[0]
        return self.dirent_home(pathutil.parent_of(path))

    def dirent_server(self, parent: str, name: str) -> str:
        return self.dirent_home(parent)

    def entry_servers(self, path: str, parent: str, name: str) -> tuple[str, str]:
        # a child's inode and its dirent both live on hash(parent)
        server = self.dirent_home(parent)
        return server, server

    def dirent_home(self, path: str) -> str:
        path = pathutil.normalize(path)
        if path == "/":
            return self.servers[0]
        return self.servers[_h(path, self.n)]

    def readdir_servers(self, path: str) -> list[str]:
        return [self.dirent_home(path)]


class GlusterPlacement(PlacementBase):
    """GlusterFS DHT over bricks: dirs everywhere, files by (parent, name)."""

    def inode_server(self, path: str) -> str:
        # files hash by full path (== parent+name); directory reads can be
        # served by any replica — use the hash brick to spread load
        path = pathutil.normalize(path)
        if path == "/":
            return self.servers[0]
        return self.servers[_h(path, self.n)]

    def dirent_server(self, parent: str, name: str) -> str:
        # a file's dirent lives in the parent-copy of the brick holding the file
        return self.inode_server(pathutil.join(parent, name))

    def entry_servers(self, path: str, parent: str, name: str) -> tuple[str, str]:
        server = self.inode_server(path)
        return server, server

    def readdir_servers(self, path: str) -> list[str]:
        return list(self.servers)
