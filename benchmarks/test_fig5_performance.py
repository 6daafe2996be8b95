"""Figure 5 — Performance evaluation of SafetyNet.

Five bars per workload, exactly as in the paper:

1. unprotected, fault-free
2. unprotected, with fault            -> crash
3. SafetyNet, fault-free
4. SafetyNet, 10 transient faults/s   (dropped messages, Experiment 2)
5. SafetyNet, hard fault              (killed half-switch, Experiment 3)

Expected shape: bars 1 and 3 statistically equal (SafetyNet adds no
common-case overhead); bar 2 crashes; bar 4 close to fault-free; bar 5
completes with some slowdown from the lost interconnect bandwidth.

Scaled runs compress the fault period (the paper's one-per-100M-cycles
would mean zero faults in a short simulation); the harness also prints
the overhead *extrapolated back to the paper's fault rate* from measured
lost-work per recovery.

The whole figure is one ``repro.experiments`` campaign: every (workload,
bar, seed) cell becomes a hashable RunSpec and the Runner fans the runs
out over worker processes (REPRO_BENCH_JOBS to override).
"""

from repro.analysis import (
    ascii_bar_chart,
    extrapolate_transient_overhead,
    normalized_performance,
)
from repro.workloads import WORKLOAD_NAMES

from benchmarks.conftest import run_once

# Compressed transient-fault period for scaled runs (cycles).
TRANSIENT_PERIOD = 60_000
HARD_FAULT_AT = 50_000


def bar_specs(name: str, profile):
    """The five Fig. 5 bars for one workload, as RunSpec lists."""
    base = profile.base_spec(workload=name)
    transient = dict(fault="transient", fault_period=TRANSIENT_PERIOD,
                     fault_at=TRANSIENT_PERIOD // 2)
    seeds = profile.seeds
    return {
        "unprot_ff": [base.with_(safetynet=False, seed=s) for s in seeds],
        "unprot_fault": [base.with_(safetynet=False, seed=seeds[0],
                                    **transient)],
        "sn_ff": [base.with_(seed=s) for s in seeds],
        "sn_transient": [base.with_(seed=s, **transient) for s in seeds],
        "sn_hard": [base.with_(seed=seeds[0], fault="switch",
                               fault_at=HARD_FAULT_AT)],
    }


def summarise_workload(name: str, results):
    base = results["unprot_ff"]
    bars = {
        "Unprotected fault-free":
            normalized_performance(base, base, "unprot ff"),
        "Unprotected with fault":
            normalized_performance(results["unprot_fault"], base, "unprot fault"),
        "SafetyNet fault-free":
            normalized_performance(results["sn_ff"], base, "sn ff"),
        "SafetyNet transient faults":
            normalized_performance(results["sn_transient"], base, "sn transient"),
        "SafetyNet hard fault":
            normalized_performance(results["sn_hard"], base, "sn hard"),
    }
    extrapolated = extrapolate_transient_overhead(results["sn_transient"])
    return bars, extrapolated, results


def test_fig5_performance_evaluation(benchmark, profile):
    def experiment():
        # One flat campaign covering every workload x bar x seed; the
        # runner executes it with a process pool and hands the records
        # back in spec order.
        campaign = {name: bar_specs(name, profile) for name in WORKLOAD_NAMES}
        flat = [spec for bars in campaign.values()
                for specs in bars.values() for spec in specs]
        records = iter(profile.runner().run(flat))
        out = {}
        for name, bars in campaign.items():
            results = {
                bar: [next(records) for _ in specs]
                for bar, specs in bars.items()
            }
            out[name] = summarise_workload(name, results)
        return out

    all_results = run_once(experiment, benchmark)

    print("\nFIGURE 5 — Normalized performance "
          "(1.0 = unprotected fault-free; paper reports all five workloads)")
    for name in WORKLOAD_NAMES:
        bars, extrapolated, _ = all_results[name]
        values = {label: bar.mean for label, bar in bars.items()}
        crashes = [label for label, bar in bars.items() if bar.crashed]
        print()
        print(ascii_bar_chart(values, title=f"[{name}]", crashes=crashes))
        for label, bar in bars.items():
            if not bar.crashed:
                print(f"    {label}: {bar.mean:.3f} +- {bar.stddev:.3f}")
        print(f"    transient overhead extrapolated to the paper's "
              f"10 faults/s: {extrapolated:.4%}")

    # --- shape assertions (the paper's claims) -------------------------
    for name in WORKLOAD_NAMES:
        bars, extrapolated, results = all_results[name]
        # (2) the unprotected system crashes under faults;
        assert bars["Unprotected with fault"].crashed, name
        # (1,3) SafetyNet adds no significant fault-free overhead
        # (within noise + 8% at quick scale).
        sn_ff = bars["SafetyNet fault-free"]
        assert not sn_ff.crashed, name
        assert sn_ff.mean > 0.92, f"{name}: SafetyNet ff {sn_ff.mean:.3f}"
        # (4) SafetyNet survives transient faults and actually recovered;
        sn_tr = bars["SafetyNet transient faults"]
        assert not sn_tr.crashed, name
        assert any(r.recoveries > 0 for r in results["sn_transient"]), name
        # (5) SafetyNet survives the hard fault (reconfigured routing);
        assert not bars["SafetyNet hard fault"].crashed, name
        # at the paper's actual fault rate the overhead is negligible.
        assert extrapolated < 0.01, f"{name}: {extrapolated:.2%}"
