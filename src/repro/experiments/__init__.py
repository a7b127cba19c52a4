"""Experiment modules — one per table/figure of the paper's evaluation.

Each module exposes ``run(**params)`` returning one or more
:class:`~repro.experiments.common.ExperimentResult` whose ``report()``
prints the same rows/series the paper plots.  Each ``run``'s defaults are
the reference scale: ``python -m repro run all`` prints every number
EXPERIMENTS.md quotes (``results/reference_run.txt``).  The claims
table (``tests/claims.py``) bounds their shape at a smaller scale.
"""

from . import (
    fig01_gap,
    fig06_latency,
    fig07_latency_ops,
    fig08_throughput,
    fig09_bridging_gap,
    fig10_flattened,
    fig11_decoupled,
    fig12_fullsystem,
    fig13_depth,
    fig14_rename,
    fig15_batching,
    fig16_availability,
    fig17_async_updates,
    fig18_openloop,
    fig19_replication,
    table1_access_matrix,
    table3_clients,
)
from .common import ExperimentResult

#: experiment id -> module (the per-experiment index of DESIGN.md)
REGISTRY = {
    "fig1": fig01_gap,
    "fig6": fig06_latency,
    "fig7": fig07_latency_ops,
    "fig8": fig08_throughput,
    "fig9": fig09_bridging_gap,
    "fig10": fig10_flattened,
    "fig11": fig11_decoupled,
    "fig12": fig12_fullsystem,
    "fig13": fig13_depth,
    "fig14": fig14_rename,
    "fig15": fig15_batching,
    "fig16": fig16_availability,
    "fig17": fig17_async_updates,
    "fig18": fig18_openloop,
    "fig19": fig19_replication,
    "table1": table1_access_matrix,
    "table3": table3_clients,
}

__all__ = ["ExperimentResult", "REGISTRY"]
