"""Run aggregation and the paper's normalisation methodology.

The paper (after Alameldeen et al. [2]) runs each design point several
times with small pseudo-random perturbations (here: different seeds feed
different clock skews and workload hash streams) and reports means with
one-standard-deviation error bars.  Performance in Fig. 5/8 is normalised
runtime for fixed work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.sim.stats import mean_and_stddev
from repro.system.machine import RunResult

#: The paper's transient-fault period: ten faults per second at 1 GHz.
PAPER_FAULT_PERIOD = 100_000_000.0


@dataclass
class MeasuredBar:
    """One bar of a Fig. 5/8-style chart (mean +- stddev, or a crash)."""

    label: str
    mean: float
    stddev: float
    crashed: bool = False
    samples: int = 0

    def render(self) -> str:
        if self.crashed:
            return f"{self.label:<42s} CRASH"
        return (
            f"{self.label:<42s} {self.mean:6.3f} +- {self.stddev:5.3f} "
            f"(n={self.samples})"
        )


def normalized_performance(
    results: Sequence[RunResult],
    baseline_results: Sequence[RunResult],
    label: str,
) -> MeasuredBar:
    """Normalised performance = baseline runtime / measured runtime
    (1.0 = the unprotected fault-free system; higher is faster).

    A run that crashed (or never finished) renders as the paper's "crash"
    bar.
    """
    if any(r.crashed or not r.completed for r in results):
        return MeasuredBar(label, 0.0, 0.0, crashed=True, samples=len(results))
    base_mean, _ = mean_and_stddev([r.cycles for r in baseline_results])
    ratios = [base_mean / r.cycles for r in results]
    mean, std = mean_and_stddev(ratios)
    return MeasuredBar(label, mean, std, samples=len(results))


def extrapolate_transient_overhead(results: Sequence[RunResult]) -> float:
    """Extrapolate measured per-recovery cost to the paper's fault rate.

    Scaled runs compress the fault period to see several recoveries in a
    short simulation; the paper's claim concerns ten faults per second
    (one per 100M cycles).  Overhead there = lost cycles per recovery /
    paper period.  Lost cycles per recovery is approximated by
    (lost instructions per recovery) at ~1 IPC plus the recovery latency.
    """
    total_recoveries = sum(r.recoveries for r in results)
    if total_recoveries == 0:
        return 0.0
    total_lost = sum(r.lost_instructions for r in results)
    lost_per_recovery = total_lost / total_recoveries
    return lost_per_recovery / PAPER_FAULT_PERIOD
