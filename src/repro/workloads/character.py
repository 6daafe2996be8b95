"""Offline workload characterisation (no simulator needed).

Computes the statistics the paper's Table 3 and Fig. 6 are about directly
from the op stream: instruction mix, store rates, and — crucially for CLB
sizing — how many *distinct* blocks a CPU stores to per window of
instructions (the once-per-interval logging rule makes this the CLB entry
rate).
"""

from __future__ import annotations

from typing import Dict, List

from repro.workloads.base import OP_ADDR_MASK, OP_GAP_SHIFT, OP_STORE_BIT


def workload_character(
    workload,
    *,
    cpus: int = 4,
    ops_per_cpu: int = 20_000,
    window_instructions: int = 100_000,
) -> Dict[str, float]:
    """Summarise a workload's memory-reference character.

    Each CPU's first ``ops_per_cpu`` ops are the ones a core executes:
    the chain of positions from 0, each op advancing by ``gap + 1``, so
    position-tied features (phases, allocation streaming) are sampled on
    the grid the cores run.  Returns per-1000-instruction rates plus
    distinct-stored-blocks per window (an upper-bound proxy for CLB
    entries per interval, ignoring coherence transfers).
    """
    instructions = 0
    loads = 0
    stores = 0
    shared_accesses = 0
    shared_boundary = None
    distinct_per_window: List[int] = []

    for cpu in range(cpus):
        window_start = 0
        stored_blocks = set()
        cpu_instructions = 0
        ops: List[int] = []
        position = 0
        while len(ops) < ops_per_cpu:
            window, position = workload.ops_from(cpu, position, 1 << 62)
            ops += window
        for packed in ops[:ops_per_cpu]:
            gap = packed >> OP_GAP_SHIFT
            is_store = packed & OP_STORE_BIT
            addr = packed & OP_ADDR_MASK
            cpu_instructions += gap + 1
            instructions += gap + 1
            if is_store:
                stores += 1
                stored_blocks.add(addr)
            else:
                loads += 1
            if shared_boundary is None:
                shared_boundary = getattr(workload, "_priv_base", None)
            if shared_boundary is not None and (addr >> 6) < shared_boundary:
                shared_accesses += 1
            if cpu_instructions - window_start >= window_instructions:
                distinct_per_window.append(len(stored_blocks))
                stored_blocks = set()
                window_start = cpu_instructions
        if stored_blocks and cpu_instructions - window_start > window_instructions // 2:
            # Count a mostly-complete trailing window, scaled.
            frac = (cpu_instructions - window_start) / window_instructions
            distinct_per_window.append(int(len(stored_blocks) / frac))

    memops = loads + stores
    per_k = 1000.0 / instructions if instructions else 0.0
    mean_distinct = (
        sum(distinct_per_window) / len(distinct_per_window)
        if distinct_per_window
        else 0.0
    )
    return {
        "instructions": float(instructions),
        "memops_per_1000": memops * per_k,
        "loads_per_1000": loads * per_k,
        "stores_per_1000": stores * per_k,
        "shared_frac_of_memops": shared_accesses / memops if memops else 0.0,
        "distinct_stored_blocks_per_window": mean_distinct,
        "window_instructions": float(window_instructions),
    }
