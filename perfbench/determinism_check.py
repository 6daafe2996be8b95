#!/usr/bin/env python3
"""The benchmark's own test: deterministic work counters repeat exactly.

Runs every workload's traced measurement twice (one traced repetition
each) and requires every work counter in ``layers.WORK_COUNTS`` —
dispatches, hops, sends, handler calls, messages, recoveries, lost and
re-executed instructions — to be identical, and every run to match its
pinned outputs.  A later change may then cite these counts as noise-free
evidence.

    python3 perfbench/determinism_check.py          # plain script
    python3 -m pytest perfbench/determinism_check.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SIM_SEED = workloads.TUNE_SEEDS[0]


def counters_of(workload: str):
    tally = run.Tally()
    metrics = run.measure(workload, SIM_SEED, seconds=0, trace=True,
                          tally=tally)
    assert tally.failed == 0, tally.problems
    return {key: metrics[key] for key in layers.WORK_COUNTS}


def check(workload: str) -> None:
    first, second = counters_of(workload), counters_of(workload)
    moved = {key: (first[key], second[key])
             for key in first if first[key] != second[key]}
    assert not moved, f"{workload}: work counters moved {moved}"
    assert first["sim.dispatches"] > 0
    if workload == "jbb-4x4-transient":
        assert first["recovery.n"] >= 1


def test_apache_8x8_counters_repeat():
    check("apache-8x8")


def test_apache_2x2_counters_repeat():
    check("apache-2x2")


def test_jbb_transient_counters_repeat():
    check("jbb-4x4-transient")


def test_campaign_counters_repeat():
    check(workloads.CAMPAIGN)


def setup_module():
    run.load_program()


if __name__ == "__main__":
    setup_module()
    for name in workloads.WORKLOADS:
        check(name)
        print(f"{name}: work counters repeat exactly")
