"""Shared primitives: errors, types, paths, uuids, stats, configuration."""

from . import errors, pathutil
from .config import BatchConfig, CacheConfig, ClusterConfig, DirectoryConfig, LookupCacheConfig
from .errors import (
    CrossDevice,
    Exists,
    FSError,
    InvalidArgument,
    IsADirectory,
    NoEntry,
    NotADirectory,
    NotEmpty,
    PermissionDenied,
    StaleHandle,
)
from .stats import Counters, LatencyRecorder, Summary, iops
from .types import Credentials, DirEntry, FileType, StatResult
from .uuidgen import ROOT_UUID, UuidAllocator, make_uuid, uuid_fid, uuid_sid

__all__ = [
    "errors",
    "pathutil",
    "BatchConfig",
    "CacheConfig",
    "ClusterConfig",
    "DirectoryConfig",
    "LookupCacheConfig",
    "CrossDevice",
    "Exists",
    "FSError",
    "InvalidArgument",
    "IsADirectory",
    "NoEntry",
    "NotADirectory",
    "NotEmpty",
    "PermissionDenied",
    "StaleHandle",
    "Counters",
    "LatencyRecorder",
    "Summary",
    "iops",
    "Credentials",
    "DirEntry",
    "FileType",
    "StatResult",
    "ROOT_UUID",
    "UuidAllocator",
    "make_uuid",
    "uuid_fid",
    "uuid_sid",
]
