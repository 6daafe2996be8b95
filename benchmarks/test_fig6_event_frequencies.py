"""Figure 6 — Frequencies of stores and coherence requests vs. checkpoint
interval (static web server workload).

The paper plots, per 1000 instructions on log-log axes: all stores, all
coherence requests, stores that use the CLB, and coherence requests that
use the CLB.  The total rates are flat in the interval length, while the
CLB-using rates fall steeply — temporal/spatial locality means longer
intervals re-touch the same blocks, and the once-per-interval rule
deduplicates them.  This drop-off is what makes coarse checkpointing
cheap (one to two orders of magnitude less logging, paper §1).
"""

from repro.analysis import format_table
from repro.config import SystemConfig
from repro.system.machine import Machine
from repro.workloads import apache

from benchmarks.conftest import run_once

# Scaled interval sweep: the paper sweeps 10k..1M cycles at full scale.
INTERVALS = [2_000, 5_000, 12_500, 30_000, 75_000]


def measure_rates(interval: int, profile):
    cfg = SystemConfig.sim_scaled(profile.scale, checkpoint_interval=interval)
    machine = Machine(cfg, apache(num_cpus=16, scale=profile.scale, seed=1),
                      seed=1)
    result = machine.run(
        profile.measure_instructions, max_cycles=profile.max_cycles,
        warmup=profile.warmup_instructions,
    )
    assert result.completed and not result.crashed
    stats = machine.stats
    instr = result.committed_instructions
    per_k = 1000.0 / instr
    coherence_all = (
        stats.sum_counters("cache.transfers_served")
        + stats.sum_counters("home.writebacks")
        + stats.sum_counters("home.data_served")
    )
    coherence_clb = (
        stats.sum_counters("cache.transfers_logged")
        + stats.sum_counters("home.transfers_logged")
    )
    return {
        "stores": stats.sum_counters(".stores") * per_k,
        "stores_clb": stats.sum_counters(".stores_logged") * per_k,
        "coherence": coherence_all * per_k,
        "coherence_clb": coherence_clb * per_k,
        "clb_entries_per_interval": sum(
            n.cache_clb.total_appends + n.home_clb.total_appends
            for n in machine.nodes
        ) / max(1, result.cycles / interval) / 16,
    }


def test_fig6_store_and_coherence_frequencies(benchmark, profile):
    def experiment():
        return {i: measure_rates(i, profile) for i in INTERVALS}

    rates = run_once(experiment, benchmark)

    rows = [
        (
            f"{interval:,}",
            f"{r['stores']:.1f}",
            f"{r['stores_clb']:.2f}",
            f"{r['coherence']:.2f}",
            f"{r['coherence_clb']:.2f}",
            f"{r['clb_entries_per_interval']:.0f}",
        )
        for interval, r in rates.items()
    ]
    print()
    print(format_table(
        ["interval (cycles)", "all stores /1k", "stores using CLB /1k",
         "all coherence /1k", "coherence using CLB /1k",
         "CLB entries/interval/node"],
        rows,
        title="FIGURE 6 — events per 1000 instructions vs checkpoint "
              "interval (apache)",
    ))

    shortest, longest = rates[INTERVALS[0]], rates[INTERVALS[-1]]
    # All-stores rate is a property of the workload, not the interval: flat.
    assert abs(shortest["stores"] - longest["stores"]) / shortest["stores"] < 0.1
    # CLB-using stores fall steeply with interval length (the paper shows
    # one to two orders of magnitude over its sweep; we ask for >= 2.5x
    # over our compressed sweep).
    assert shortest["stores_clb"] > 2.5 * longest["stores_clb"], (
        shortest["stores_clb"], longest["stores_clb"])
    # Monotone (within noise): each longer interval logs no more stores/instr.
    clb_series = [rates[i]["stores_clb"] for i in INTERVALS]
    for a, b in zip(clb_series, clb_series[1:]):
        assert b <= a * 1.15, clb_series
    # Logging is always a small fraction of all stores at long intervals
    # (paper: 2-3% at its 100k design point).
    assert longest["stores_clb"] / longest["stores"] < 0.15
