"""Figure 8 — Performance vs. CLB size.

The paper runs all five workloads with 1 MB, 512 kB, and 256 kB CLBs (the
text adds that 128 kB degrades everything): 512 kB and 1 MB perform
equally, 256 kB degrades jbb and apache first.  The scaled equivalent
keeps the same ratios to the scaled checkpoint interval.  Degradation
appears as CLB backpressure: store throttling, NACKs, and in the extreme
watchdog recoveries.

The sweep is a ``repro.experiments`` campaign: workloads x CLB sizes
expand into RunSpecs and execute through the parallel Runner; the
backpressure diagnostics ride along in each record's harvested metrics.
"""

from repro.analysis import format_table
from repro.experiments import Sweep
from repro.workloads import WORKLOAD_NAMES

from benchmarks.conftest import run_once

# Scaled analogue of the paper's sweep.  The sim_scaled default (512k/16 =
# 32 kB = 455 entries) plays the paper's 512 kB design point.  Our sweep
# goes deeper than the paper's 1/2 and 1/4 points because the synthetic
# workloads have thinner logging-rate tails than full commercial runs —
# the knee sits at a smaller fraction of the design size, but it is the
# same knee: the deeper points degrade through the same CLB backpressure.
SIZES = {
    "2x design": 2 * (512 * 1024 // 16),
    "design (512kB-eq)": 512 * 1024 // 16,
    "1/8 design": 512 * 1024 // 128,
    "1/16 design": 512 * 1024 // 256,
}


def sweep_specs(profile) -> Sweep:
    # The livelock guard is disabled: undersized CLBs should *degrade*
    # (stalls, NACKs, watchdog recoveries), never convert to a crash —
    # that is the paper's "sized for performance, not correctness".
    base = profile.base_spec(
        seed=1,
        max_cycles=min(profile.max_cycles, 8_000_000),
        config_overrides=(("max_recoveries", 10**9),),
    )
    return Sweep(base=base,
                 grid={"workload": list(WORKLOAD_NAMES),
                       "clb_bytes": list(SIZES.values())},
                 seeds=[1])


def backpressure(record) -> int:
    return int(record.metrics["store_throttles"]
               + record.metrics["nacks_sent"]
               + record.metrics["fwd_clb_stalls"])


def test_fig8_performance_vs_clb_size(benchmark, profile):
    def experiment():
        sweep = sweep_specs(profile)
        specs = sweep.expand()
        records = profile.runner().run(specs)
        by_cell = {(r.spec.workload, r.spec.clb_bytes): r for r in records}
        return {
            name: {label: by_cell[(name, size)]
                   for label, size in SIZES.items()}
            for name in WORKLOAD_NAMES
        }

    data = run_once(experiment, benchmark)

    print("\nFIGURE 8 — normalized performance vs CLB size "
          "(1.0 = largest CLB)")
    rows = []
    normalized = {}
    for name in WORKLOAD_NAMES:
        base_rate = data[name]["2x design"].work_rate
        normalized[name] = {}
        for label in SIZES:
            record = data[name][label]
            perf = record.work_rate / base_rate if base_rate else 0.0
            normalized[name][label] = perf
            rows.append((name, label, f"{perf:.3f}", backpressure(record),
                         record.recoveries))
    print(format_table(
        ["workload", "CLB size", "normalized perf", "backpressure events",
         "recoveries"],
        rows,
    ))

    for name in WORKLOAD_NAMES:
        # Design-size CLBs are performance-neutral vs. double-size
        # (the paper: 512 kB and 1 MB statistically equivalent).
        assert normalized[name]["design (512kB-eq)"] > 0.95, (
            name, normalized[name])
        # Small CLBs never beat the design size meaningfully.
        assert (normalized[name]["1/16 design"]
                <= normalized[name]["design (512kB-eq)"] * 1.05), name
    # Some workload degrades measurably at the small end (the paper: all
    # workloads degrade at 128 kB; jbb/apache already at 256 kB).
    worst = min(normalized[name]["1/16 design"] for name in WORKLOAD_NAMES)
    assert worst < 0.97, f"small CLBs never hurt anyone: {normalized}"
    # jbb is among the most CLB-hungry (allocation streaming): bottom three.
    jbb_small = normalized["jbb"]["1/16 design"]
    assert jbb_small <= sorted(
        normalized[n]["1/16 design"] for n in WORKLOAD_NAMES
    )[2], normalized
