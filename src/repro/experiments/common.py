"""Shared plumbing for the per-figure experiment modules.

Every experiment module exposes ``run(**params) -> ExperimentResult`` and
the result renders the same rows/series the paper's figure plots.  The
claims table (``tests/claims.py``) bounds the rows of scaled-down runs;
EXPERIMENTS.md records paper-vs-measured for the full-scale runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.harness.report import format_table


@dataclass
class ExperimentResult:
    """A labelled table of series: rows[system][column] -> value."""

    experiment: str
    title: str
    col_header: str
    columns: list
    rows: dict[str, dict]
    unit: str = ""
    fmt: str = "{:,.0f}"
    notes: list[str] = field(default_factory=list)
    extras: dict[str, Any] = field(default_factory=dict)

    def report(self) -> str:
        out = [format_table(f"{self.experiment}: {self.title}", self.col_header,
                            self.columns, self.rows, unit=self.unit, fmt=self.fmt)]
        for note in self.notes:
            out.append(f"   note: {note}")
        return "\n".join(out)
