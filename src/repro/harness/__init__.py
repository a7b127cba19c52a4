"""mdtest-style benchmark harness: workloads, runners, reporting."""

from .availability import AvailabilityResult, run_availability
from .mdtest import FILE_META_OPS, LATENCY_OPS, run_latency
from .openloop import PACK_NAMES, PACKS, OpenLoopResult, get_pack, run_openloop
from .registry import FS_SYSTEM_NAMES, LABELS, SYSTEM_NAMES, make_system
from .report import format_metrics, format_series, format_table, normalize
from .runner import (
    MIX_READ_MOSTLY,
    MIX_UPDATE_HEAVY,
    MixedThroughputResult,
    ThroughputResult,
    run_mixed_throughput,
    run_throughput,
)
from .trace import TraceGenerator
from .workloads import TABLE3_CLIENTS, Workload, ZipfPicker, clients_for

__all__ = [
    "AvailabilityResult",
    "run_availability",
    "FILE_META_OPS",
    "LATENCY_OPS",
    "run_latency",
    "PACK_NAMES",
    "PACKS",
    "OpenLoopResult",
    "get_pack",
    "run_openloop",
    "FS_SYSTEM_NAMES",
    "LABELS",
    "SYSTEM_NAMES",
    "make_system",
    "format_metrics",
    "format_series",
    "format_table",
    "normalize",
    "MIX_READ_MOSTLY",
    "MIX_UPDATE_HEAVY",
    "MixedThroughputResult",
    "ThroughputResult",
    "run_mixed_throughput",
    "run_throughput",
    "TraceGenerator",
    "TABLE3_CLIENTS",
    "Workload",
    "ZipfPicker",
    "clients_for",
]
