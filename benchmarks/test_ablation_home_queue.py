"""Ablation — home-directory queue depth (a design decision of this model).

Our home is blocking-per-block with a bounded queue and NACK overflow (the
Origin-style simplification).  This ablation sweeps the queue depth to
show the trade-off the design point sits on: depth 0 forces every
conflicting request through NACK/retry (slower under contention), while a
few entries recover nearly all of the performance — justifying the small
default rather than an unbounded (unimplementable) queue.
"""

from repro.analysis import format_table
from repro.config import SystemConfig
from repro.system.machine import Machine
from repro.workloads import oltp

from benchmarks.conftest import run_once

DEPTHS = [0, 2, 16]


def test_home_queue_depth_ablation(benchmark, profile):
    def experiment():
        out = {}
        for depth in DEPTHS:
            cfg = SystemConfig.sim_scaled(profile.scale,
                                          home_queue_depth=depth)
            machine = Machine(
                cfg, oltp(num_cpus=16, scale=profile.scale, seed=4), seed=4
            )
            result = machine.run(
                profile.measure_instructions, max_cycles=profile.max_cycles,
                warmup=profile.warmup_instructions,
            )
            nacks = machine.stats.sum_counters("home.nacks_sent")
            out[depth] = (result, nacks)
        return out

    sweep = run_once(experiment, benchmark)

    base_cycles = sweep[DEPTHS[-1]][0].cycles
    rows = [
        (depth,
         f"{base_cycles / result.cycles:.3f}" if result.completed else "DNF",
         nacks)
        for depth, (result, nacks) in sweep.items()
    ]
    print()
    print(format_table(
        ["home queue depth", "normalized perf", "NACKs sent"],
        rows,
        title="Ablation — blocking-home queue depth (oltp, contended)",
    ))

    for depth, (result, _nacks) in sweep.items():
        assert result.completed and not result.crashed, depth
    # Depth 0 must lean on NACKs; the default depth needs (almost) none.
    assert sweep[0][1] > sweep[16][1]
    # The default depth recovers the performance of deep queueing.
    assert base_cycles / sweep[2][0].cycles > 0.9
