"""§3.4 — tolerable detection latency vs. checkpoint policy.

The paper: "we allow four outstanding checkpoints and choose fc = 10 kHz
to enable 400,000 cycles of detection latency tolerance"; longer intervals
buy more tolerance at the cost of CLB storage and output-commit delay.

This bench sweeps the detection latency against the outstanding-checkpoint
window and shows the paper's pipelining claim: within the window, slow
detection costs recovery-point *lag*, not throughput; beyond it, the
machine throttles execution.
"""

from repro.analysis import format_table
from repro.config import SystemConfig
from repro.system.machine import Machine
from repro.workloads import apache

from benchmarks.conftest import run_once


def test_detection_latency_tolerance(benchmark, profile):
    def experiment():
        cfg = SystemConfig.sim_scaled(profile.scale)
        out = {}
        for intervals_of_latency in [0, 2, 4, 8]:
            latency = intervals_of_latency * cfg.checkpoint_interval
            machine = Machine(
                cfg, apache(num_cpus=16, scale=profile.scale, seed=3),
                seed=3, detection_latency=latency,
            )
            # Beyond-window points stall permanently; cap their cycles so
            # the bench spends its time on the interesting regime.
            cap = profile.max_cycles
            if intervals_of_latency > cfg.outstanding_checkpoints:
                cap = min(cap, 4_000_000)
            result = machine.run(
                profile.measure_instructions, max_cycles=cap,
                warmup=profile.warmup_instructions,
            )
            throttles = machine.stats.sum_counters(".outstanding_ckpt_stalls")
            out[intervals_of_latency] = (result, throttles)
        return cfg, out

    cfg, sweep = run_once(experiment, benchmark)

    base_cycles = sweep[0][0].cycles
    rows = []
    for k, (result, throttles) in sweep.items():
        rows.append((
            f"{k} intervals ({k * cfg.checkpoint_interval:,} cy)",
            f"{base_cycles / result.cycles:.3f}" if result.completed else "DNF",
            throttles,
        ))
    print()
    print(format_table(
        ["detection latency", "normalized perf", "throttle events"],
        rows,
        title=f"S3.4 — detection-latency tolerance "
              f"(window = {cfg.outstanding_checkpoints} outstanding "
              f"x {cfg.checkpoint_interval:,}-cycle intervals "
              f"= {cfg.detection_latency_tolerance:,} cycles)",
    ))

    # Within the window: performance unaffected (pipelined validation).
    within = sweep[2][0]
    assert within.completed
    assert base_cycles / within.cycles > 0.95
    # Beyond the window (8 intervals > 4 outstanding): the recovery point
    # permanently lags by more than the window, so execution throttles —
    # the paper's "in the worst case, by stalling execution" (§3.5).  The
    # design rule is exactly that detection latency must fit within
    # outstanding x interval; past it the machine stalls rather than runs.
    beyond_result, beyond_throttles = sweep[8]
    assert beyond_throttles > 0, "no throttling beyond the window"
    assert not beyond_result.crashed  # stalls, never breaks
    assert not beyond_result.completed  # cannot sustain execution out there
