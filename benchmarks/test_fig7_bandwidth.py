"""Figure 7 — Cache bandwidth breakdown vs. checkpoint interval (static
web server workload).

The paper decomposes cache data-array bandwidth into cache hits, cache
fills, coherence responses, and logging (reading the old copy of a block
out for the CLB).  SafetyNet's extra bandwidth is the logging share: ~4%
at very short (5k-cycle) intervals, falling to ~0.3% at million-cycle
intervals.  Only store-overwrite logging costs extra bandwidth — transfer
logging reuses the read the response needed anyway (paper §4.3).
"""

from repro.analysis import format_table
from repro.config import SystemConfig
from repro.system.machine import Machine
from repro.workloads import apache

from benchmarks.conftest import run_once

INTERVALS = [2_000, 5_000, 12_500, 30_000, 75_000]
KINDS = ["hits", "fills", "coherence", "logging"]


def measure_bandwidth(interval: int, profile):
    cfg = SystemConfig.sim_scaled(profile.scale, checkpoint_interval=interval)
    machine = Machine(cfg, apache(num_cpus=16, scale=profile.scale, seed=1),
                      seed=1)
    result = machine.run(
        profile.measure_instructions, max_cycles=profile.max_cycles,
        warmup=profile.warmup_instructions,
    )
    assert result.completed and not result.crashed
    totals = {kind: 0 for kind in KINDS}
    for node in machine.nodes:
        for kind, nbytes in node.cache.bw.by_kind().items():
            totals[kind] += nbytes
    total = sum(totals.values())
    return {kind: totals[kind] / total for kind in KINDS}


def test_fig7_bandwidth_breakdown(benchmark, profile):
    def experiment():
        return {i: measure_bandwidth(i, profile) for i in INTERVALS}

    shares = run_once(experiment, benchmark)

    rows = [
        (f"{interval:,}",) + tuple(f"{shares[interval][k]:.3f}" for k in KINDS)
        for interval in INTERVALS
    ]
    print()
    print(format_table(
        ["interval (cycles)"] + [f"{k} frac" for k in KINDS],
        rows,
        title="FIGURE 7 — cache bandwidth breakdown vs checkpoint interval "
              "(apache)",
    ))

    # Hits dominate at every interval (the paper's chart is mostly 'hits').
    for interval in INTERVALS:
        assert shares[interval]["hits"] > 0.5, interval
    # Logging bandwidth falls as intervals lengthen...
    log_series = [shares[i]["logging"] for i in INTERVALS]
    assert log_series[0] > 2.0 * log_series[-1], log_series
    # ...and is a small share even at the shortest interval (paper: <= ~4%).
    assert log_series[0] < 0.10, log_series
    # At the longest interval it is nearly free (paper: ~0.3%).
    assert log_series[-1] < 0.02, log_series
    # The non-logging shares barely move: SafetyNet does not perturb the
    # underlying traffic.
    for kind in ("hits", "fills", "coherence"):
        series = [shares[i][kind] for i in INTERVALS]
        assert max(series) - min(series) < 0.12, (kind, series)
