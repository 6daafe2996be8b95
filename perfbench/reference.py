"""A fixed host-speed reference that the benchmark's timings are scaled by.

The host is shared. Other tenants slow every process on it by 10–40%, in
bursts that last from seconds to minutes. Process CPU time shows the same
slowdown, so measuring CPU time instead does not help.

:func:`reference_seconds` times a fixed pure-Python event loop (heap,
dicts, small objects, like the simulator's hot loop). The benchmark runs
it between repetitions. A repetition's wall time divided by the mean of
the two reference timings around it tracks the host's speed at that
moment. The benchmark reports ``ratio * REFERENCE_S``: host seconds at
the speed where the loop takes ``REFERENCE_S``.

Measured on a 2-vCPU VM over ten 25 s runs per workload, the spread
(quartile distance over median) of the scaled medians was 2.5% (jbb),
4.5% (apache 2x2), 9% (apache 8x8) and 10% (campaign). The fastest raw
repetition spread 20%, 26%, 7.5% and 13%. The loop's small working set
tracks the CPU-bound runs best. It tracks the memory-heavier 8x8 machine,
and the campaign's second core, only partly.

Never change this loop or ``REFERENCE_S``: doing so rescales every timing
the benchmark has reported. A simulator change cannot move the reference,
so scaled timings compare commits just as raw ones would.
"""

from __future__ import annotations

import gc
import heapq
from time import perf_counter

#: Nominal seconds of one reference loop; scaled timings assume this speed.
REFERENCE_S = 0.1


class _Event:
    __slots__ = ("when", "node", "kind")

    def __init__(self, when: int, node: int, kind: int) -> None:
        self.when = when
        self.node = node
        self.kind = kind


def reference_loop(events: int = 60_000) -> int:
    """A deterministic toy event simulation; returns a checksum."""
    queue = [(i, -i - 1, _Event(i, i % 16, i % 5)) for i in range(64)]
    heapq.heapify(queue)
    state = {}
    kinds = {}
    x = 12345
    for seq in range(events):
        when, _, event = heapq.heappop(queue)
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (event.node, x & 1023)
        state[key] = state.get(key, 0) + 1
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
        if len(state) > 4096:
            state.clear()
        heapq.heappush(queue, (when + 1 + (x & 15), seq,
                               _Event(when + 1, (event.node + 1) % 16, x % 5)))
    return sum(kinds.values()) + len(state)


def reference_seconds() -> float:
    """Wall seconds of one reference loop, run now."""
    gc.collect()
    started = perf_counter()
    reference_loop()
    return perf_counter() - started
