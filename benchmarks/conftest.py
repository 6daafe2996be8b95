"""Shared benchmark-harness configuration.

Every file in benchmarks/ regenerates one of the paper's tables or
figures, named in its module docstring (README "Reproducing the paper's
figures" lists them).  They run the real simulator, print the
table/series the paper reports, and assert the result *shape*: each
file's asserts state the paper's qualitative claim it checks.

Scale is controlled by the REPRO_BENCH_PROFILE environment variable:

* ``quick`` (default): runs sized for a few minutes total.
* ``full``: longer runs and more seeds for tighter error bars.

All benches use ``benchmark.pedantic(..., rounds=1)`` — the experiment is
the measurement; repeating a multi-second full-system simulation for
statistical timing would conflate simulator wall-time with the paper's
simulated-cycle metrics.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List

import pytest


@dataclass(frozen=True)
class BenchProfile:
    name: str
    warmup_instructions: int
    measure_instructions: int
    seeds: List[int]
    scale: int = 16           # machine + workload scaling factor
    max_cycles: int = 30_000_000

    @property
    def jobs(self) -> int:
        """Worker processes for campaign-style benches (REPRO_BENCH_JOBS).

        Per-run results are independent of the job count (each run is an
        isolated deterministic simulation), so parallelism only changes
        wall-clock time.
        """
        raw = os.environ.get("REPRO_BENCH_JOBS")
        if raw is not None:
            return max(1, int(raw))
        return min(4, os.cpu_count() or 1)

    def base_spec(self, **changes):
        """A RunSpec carrying this profile's methodology defaults."""
        from repro.experiments import RunSpec

        return RunSpec(
            instructions=self.measure_instructions,
            warmup=self.warmup_instructions,
            scale=self.scale,
            max_cycles=self.max_cycles,
        ).with_(**changes)

    def runner(self, store=None, progress=None):
        """A Runner wired for measurement campaigns.

        Benchmarks must be the measurement, not the recovery drill:
        retries are disabled (a failing cell should fail the bench
        loudly, and retry wall-time would pollute the timing) and the
        backend comes from ``REPRO_BENCH_BACKEND`` (default ``auto``) so
        the campaign fabric's backends can be A/B-timed without editing
        the benches.
        """
        from repro.experiments import Runner

        backend = os.environ.get("REPRO_BENCH_BACKEND", "auto")
        return Runner(jobs=self.jobs, store=store, progress=progress,
                      backend=backend, retries=0)


def smoke_mode() -> bool:
    """CI smoke: shrink hot-path benchmark iteration counts to seconds.

    Set ``REPRO_BENCH_SMOKE=1`` to run the hot-path guards
    (``-k "hotpath or table2"``) with tiny workloads — enough to catch a
    gross regression in the workflow without the full measurement runs.
    """
    return os.environ.get("REPRO_BENCH_SMOKE", "").lower() in ("1", "true", "yes")


def current_profile() -> BenchProfile:
    name = os.environ.get("REPRO_BENCH_PROFILE", "quick")
    if name == "full":
        return BenchProfile(
            name="full",
            warmup_instructions=15_000,
            measure_instructions=30_000,
            seeds=[1, 2, 3, 4, 5],
        )
    return BenchProfile(
        name="quick",
        warmup_instructions=4_000,
        measure_instructions=8_000,
        seeds=[1, 2],
    )


@pytest.fixture(scope="session")
def profile() -> BenchProfile:
    return current_profile()


def run_once(experiment, benchmark):
    """Run ``experiment`` exactly once under pytest-benchmark."""
    return benchmark.pedantic(experiment, rounds=1, iterations=1,
                              warmup_rounds=0)
