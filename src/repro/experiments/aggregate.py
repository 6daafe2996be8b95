"""Per-cell aggregation across seed replicates.

The paper (after Alameldeen et al.) reports each design point as a mean
over several pseudo-randomly perturbed runs with error bars.  This layer
turns a pile of :class:`~repro.experiments.runner.RunRecord` into one
summary per *cell* (the spec minus its seed): mean / min / max / sample
standard deviation and a Student-t 95% confidence half-width for each
metric, ready for ``repro.analysis.format_table`` (:func:`summary_rows`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from repro.experiments.runner import RunRecord
from repro.sim.stats import mean_and_stddev

#: Two-sided 95% Student-t critical values by degrees of freedom.
_T95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    12: 2.179, 15: 2.131, 20: 2.086, 25: 2.060, 30: 2.042,
}


def t_critical_95(df: int) -> float:
    """95% two-sided t value (nearest tabulated df at or below; 1.96 asymptote)."""
    if df < 1:
        return 0.0
    candidates = [d for d in _T95 if d <= df]
    return _T95[max(candidates)] if candidates else 1.960


@dataclass
class MetricSummary:
    """Mean and spread of one metric across a cell's replicates."""

    mean: float
    minimum: float
    maximum: float
    stddev: float
    ci95: float          # half-width of the 95% confidence interval
    n: int

    def render(self) -> str:
        return f"{self.mean:.4g} +- {self.ci95:.3g} (n={self.n})"


def summarize(values: Sequence[float]) -> MetricSummary:
    vals = [float(v) for v in values]
    n = len(vals)
    if not n:
        return MetricSummary(0.0, 0.0, 0.0, 0.0, 0.0, 0)
    mean, std = mean_and_stddev(vals)
    ci = t_critical_95(n - 1) * std / math.sqrt(n)   # 0 for one replicate
    return MetricSummary(mean, min(vals), max(vals), std, ci, n)


#: Metrics summarised for every cell; extend via ``aggregate(extra=...)``.
_DEFAULT_METRICS: Dict[str, Callable[[RunRecord], float]] = {
    "cycles": lambda r: r.cycles,
    "work_rate": lambda r: r.work_rate,
    "committed_instructions": lambda r: r.committed_instructions,
    "recoveries": lambda r: r.recoveries,
    "lost_instructions": lambda r: r.lost_instructions,
}


@dataclass
class CellSummary:
    """All replicates of one design point, collapsed."""

    cell: Dict[str, Any]               # the shared spec fields (no seed)
    cell_hash: str
    n: int
    crashes: int
    seeds: List[int]
    metrics: Dict[str, MetricSummary] = field(default_factory=dict)

    def label(self, keys: Sequence[str]) -> str:
        return " ".join(f"{k}={self.cell.get(k)}" for k in keys)


def aggregate(
    records: Iterable[RunRecord],
    extra: Dict[str, Callable[[RunRecord], float]] = None,
) -> List[CellSummary]:
    """Group records by cell and summarise each metric across seeds.

    Cells come back in first-appearance order (which, for Sweep-expanded
    campaigns, is grid order).
    """
    metrics = dict(_DEFAULT_METRICS)
    if extra:
        metrics.update(extra)
    grouped: Dict[str, List[RunRecord]] = {}
    for record in records:
        # Quarantined cells carry no measurements — folding their zeroed
        # fields into means would silently skew every metric.
        if getattr(record, "failed", False):
            continue
        grouped.setdefault(record.spec.cell_hash, []).append(record)
    out: List[CellSummary] = []
    for cell_hash, group in grouped.items():
        group = sorted(group, key=lambda r: r.spec.seed)
        summary = CellSummary(
            cell=group[0].spec.cell(),
            cell_hash=cell_hash,
            n=len(group),
            crashes=sum(1 for r in group if r.crashed),
            seeds=[r.spec.seed for r in group],
        )
        for name, fn in metrics.items():
            summary.metrics[name] = summarize([fn(r) for r in group])
        out.append(summary)
    return out


def varied_keys(cells: Sequence[CellSummary]) -> List[str]:
    """The cell fields that actually differ across the campaign.

    Keys are unioned across all cells (first-appearance order): optional
    canonical fields like ``torus_width`` are absent from default-shape
    cells, and a store mixing default-shape and shape-sweep records
    still varies along the shape axes.
    """
    if not cells:
        return []
    keys: List[str] = []
    seen = set()
    for cell in cells:
        for key in cell.cell:
            if key not in seen:
                seen.add(key)
                keys.append(key)
    first = cells[0].cell
    return [
        key for key in keys
        if any(c.cell.get(key) != first.get(key) for c in cells[1:])
    ]


def summary_rows(
    cells: Sequence[CellSummary],
    metric: str = "cycles",
) -> Tuple[List[str], List[Tuple]]:
    """(header, rows) for ``repro.analysis.format_table``."""
    keys = varied_keys(cells) or ["workload"]
    header = keys + ["n", "crashes", f"{metric} mean", "+-95% CI", "min", "max"]
    rows = []
    for cell in cells:
        s = cell.metrics[metric]
        rows.append(tuple(
            [cell.cell.get(k) for k in keys]
            + [cell.n, cell.crashes, f"{s.mean:,.4g}", f"{s.ci95:,.3g}",
               f"{s.minimum:,.4g}", f"{s.maximum:,.4g}"]
        ))
    return header, rows
