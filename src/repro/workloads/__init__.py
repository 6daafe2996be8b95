"""Synthetic workload generators (the paper's Table 3 substitutes).

The paper drives its evaluation with four commercial workloads (OLTP on
DB2, SPECjbb2000, Apache+SURGE, Slashcode) and one scientific workload
(barnes-hut) under full-system simulation.  Those stacks cannot run inside
a pure-Python reproduction, so this package provides deterministic
generators that reproduce the *memory-reference character* SafetyNet's
results depend on: store frequency, distinct-blocks-touched per checkpoint
interval (which sets CLB logging rates, Fig. 6), sharing/migration rates
(which set ownership-transfer logging), and locality (which sets miss and
bandwidth rates, Fig. 7).

Generation is positional and pure: the op a CPU issues at position ``p``
(its retired-instruction count) is a pure function of the seed, ``cpu``
and ``p``, so re-execution after a SafetyNet recovery replays exactly the
same instruction stream with no generator state to checkpoint.  Cores
read it a window at a time through ``workload.ops_from(cpu, p, end)``;
``workload.op(cpu, p)`` is the readable reference.
"""

from repro.workloads.base import MemOp, SyntheticWorkload, WorkloadSpec, mix64
from repro.workloads.presets import (
    WORKLOAD_NAMES,
    apache,
    barnes,
    by_name,
    jbb,
    oltp,
    slashcode,
)
from repro.workloads.tester import RandomTester
from repro.workloads.character import workload_character

__all__ = [
    "MemOp",
    "SyntheticWorkload",
    "WorkloadSpec",
    "mix64",
    "WORKLOAD_NAMES",
    "apache",
    "barnes",
    "by_name",
    "jbb",
    "oltp",
    "slashcode",
    "RandomTester",
    "workload_character",
]
