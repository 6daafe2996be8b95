#!/usr/bin/env python3
"""Quickstart: build a SafetyNet-protected 16-way multiprocessor, run a
commercial workload on it, and look at what the checkpoint/recovery
machinery did in the background.

Run:  python examples/quickstart.py
"""

from repro import Machine, SystemConfig, workloads
from repro.analysis import format_table


def main() -> None:
    # A scaled-down version of the paper's Table 2 machine (divide every
    # size by 16 so a pure-Python run takes seconds, keeping the ratios
    # that drive the results).  SystemConfig.paper() is the full thing.
    config = SystemConfig.sim_scaled(16)
    print(format_table(
        ["Parameter", "Value"],
        list(config.table2().items()),
        title="Target system (Table 2, scaled 1/16)",
    ))

    # The static-web-server workload (Apache + SURGE in the paper).
    workload = workloads.apache(num_cpus=16, scale=16, seed=1)

    machine = Machine(config, workload, seed=1)
    result = machine.run(instructions_per_cpu=15_000, warmup=10_000)

    print(f"\nRan {result.committed_instructions:,} instructions "
          f"in {result.cycles:,} cycles "
          f"({result.committed_instructions / result.cycles:.2f} system IPC)")
    print(f"crashed={result.crashed} recoveries={result.recoveries}")

    # SafetyNet's background activity:
    stats = machine.stats
    total = result.committed_instructions
    rows = [
        ("checkpoints validated (RPCN)", machine.controllers.rpcn),
        ("stores / 1000 instr",
         f"{1000 * stats.sum_counters('.stores') / total:.1f}"),
        ("stores that logged / 1000 instr",
         f"{1000 * stats.sum_counters('.stores_logged') / total:.2f}"),
        ("ownership transfers / 1000 instr",
         f"{1000 * stats.sum_counters('cache.transfers_served') / total:.2f}"),
        ("peak cache-CLB entries",
         max(n.cache_clb.peak_occupancy for n in machine.nodes)),
        ("peak home-CLB entries",
         max(n.home_clb.peak_occupancy for n in machine.nodes)),
    ]
    print()
    print(format_table(["SafetyNet activity", "Value"], rows))

    # The whole point: a consistent machine you can interrogate.
    machine.check_coherence_invariants()
    print("\ncoherence invariants hold (single owner per block, "
          "directory consistent)")


if __name__ == "__main__":
    main()
