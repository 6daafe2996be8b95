"""Coherence-protocol hot path guard (pluggable protocols + arbiters).

The protocol refactor's performance contract has three parts, held to
the same standard as the kernel/network/validation/CPU guards:

* **no extra work on the hot stream** — correctness is pinned elsewhere
  (tests/test_protocols.py replays pre-refactor goldens bit-for-bit);
  here mesi, which exercises the protocol machinery *more* than mosi on
  the CPU-hot store stream (E fills + silent-upgrade checks on every
  store burst), must commit the same work in no more simulated cycles
  and no more kernel dispatches.  These are deterministic counts.  The
  mesi/mosi wall ratio is printed but not bounded: mesi's
  silent upgrades save ~40% of the dispatches on this stream, so the
  ratio mostly measures that saving, and on a shared 2-vCPU host it
  ranged 0.79-1.10 between runs of the same tree.
* **mesi pays for itself** — on a sharing workload (apache), mesi must
  convert networked GETM upgrades into silent E->M upgrades and finish
  in no more simulated cycles than mosi.  This is the acceptance
  criterion "MESI measurably reduces upgrade traffic", asserted on
  deterministic simulated-cycle counts so it holds even in smoke.
* **arbiters only arbitrate** — wrr completes the same workload with
  the same committed work; its wall cost appears only under contention,
  so the end-to-end ratio gets a loose regression floor (skipped in
  smoke: sub-second runs are startup-dominated).
"""

import time

from repro.config import SystemConfig
from repro.experiments import RunSpec, build_machine
from repro.system.machine import Machine
from repro.workloads.base import SyntheticWorkload, WorkloadSpec

from benchmarks.conftest import run_once, smoke_mode

SMOKE = smoke_mode()

# The same CPU-hot stream as the CPU guard: private, cache-resident,
# store-heavy — after warmup every op hits in the burst loop's inlined
# path, which is exactly where protocol-object overhead would show up.
CPU_HOT = WorkloadSpec(name="cpu_hot", shared_frac=0.0, private_blocks=64,
                       private_hot_blocks=64, store_hot_blocks=64,
                       ro_shared_blocks=8, rw_shared_blocks=8,
                       migratory_blocks=4)
HOT_WARMUP = 2_000 if SMOKE else 5_000
HOT_INSTRUCTIONS = 6_000 if SMOKE else 30_000
MAX_ARBITER_OVERHEAD = 1.30
TIMING_REPEATS = 3

SHARING_INSTRUCTIONS = 2_000 if SMOKE else 6_000


def _hot_machine(protocol: str) -> Machine:
    config = SystemConfig.sim_scaled(16).with_overrides(protocol=protocol)
    return Machine(config, SyntheticWorkload(CPU_HOT, 16, seed=1), seed=1)


def _hot_run(protocol: str):
    machine = _hot_machine(protocol)
    started = time.perf_counter()
    result = machine.run_with_warmup(HOT_WARMUP, HOT_INSTRUCTIONS,
                                     max_cycles=120_000_000)
    elapsed = time.perf_counter() - started
    assert result.completed and not result.crashed
    key = (result.cycles, result.committed_instructions, result.recoveries)
    return key, elapsed, machine.sim.events_dispatched


def _best_interleaved(variants, run):
    """Best-of-N per variant, interleaved within each round so machine
    drift cannot bias the ratio (same discipline as the CPU guard)."""
    best = {v: float("inf") for v in variants}
    keys = {}
    for _ in range(TIMING_REPEATS):
        for variant in variants:
            key, elapsed, events = run(variant)
            best[variant] = min(best[variant], elapsed)
            if variant not in keys:
                keys[variant] = (key, events)
            else:
                assert keys[variant] == (key, events)  # deterministic
    return best, keys


def test_protocol_object_overhead_on_hot_stream(benchmark):
    best, keys = run_once(
        lambda: _best_interleaved(("mosi", "mesi"), _hot_run), benchmark)
    overhead = best["mesi"] / best["mosi"]
    print(f"\ncoherence hot stream ({HOT_INSTRUCTIONS} instr/cpu):"
          f"\n  mosi: {best['mosi']:.3f}s, {keys['mosi'][1]:,} events"
          f"\n  mesi: {best['mesi']:.3f}s, {keys['mesi'][1]:,} events"
          f"\n  mesi/mosi wall ratio: {overhead:.3f} (not bounded)")
    # On an all-private stream mesi commits the same instruction count
    # in no more cycles and no more dispatches (first store upgrades
    # silently instead of re-crossing the network).
    assert keys["mesi"][0][1] == keys["mosi"][0][1]
    assert keys["mesi"][0][0] <= keys["mosi"][0][0]
    assert keys["mesi"][1] <= keys["mosi"][1], \
        "mesi dispatched more events than mosi on the hot stream"


def _sharing_run(protocol: str):
    spec = RunSpec(workload="apache", instructions=SHARING_INSTRUCTIONS,
                   seed=1, scale=64, torus_width=4, torus_height=4,
                   protocol=protocol)
    machine = build_machine(spec)
    result = machine.run(spec.instructions, max_cycles=spec.max_cycles)
    assert result.completed
    networked = sum(n.cache.c_upgrades.value for n in machine.nodes)
    silent = sum(n.cache.c_silent_upgrade.value for n in machine.nodes)
    return result.cycles, networked, silent


def test_mesi_reduces_upgrade_traffic_and_cycles(benchmark):
    def measure():
        return _sharing_run("mosi"), _sharing_run("mesi")

    (mosi_cycles, mosi_net, mosi_silent), \
        (mesi_cycles, mesi_net, mesi_silent) = run_once(measure, benchmark)
    print(f"\nupgrade traffic (apache 4x4, {SHARING_INSTRUCTIONS} "
          f"instr/cpu):"
          f"\n  mosi: {mosi_net} networked upgrades, {mosi_cycles:,} cycles"
          f"\n  mesi: {mesi_net} networked + {mesi_silent} silent, "
          f"{mesi_cycles:,} cycles")
    assert mosi_silent == 0
    assert mesi_silent > 0, "mesi never upgraded silently"
    assert mesi_net < mosi_net, \
        "mesi must convert networked upgrades into silent ones"
    assert mesi_cycles <= mosi_cycles, \
        "mesi slower than mosi on a sharing mix — E state not paying off"


def test_arbiter_overhead_end_to_end(benchmark):
    def run(arbiter: str):
        spec = RunSpec(workload="apache", instructions=SHARING_INSTRUCTIONS,
                       seed=1, scale=64, torus_width=4, torus_height=4,
                       arbiter=arbiter)
        machine = build_machine(spec)
        started = time.perf_counter()
        result = machine.run(spec.instructions, max_cycles=spec.max_cycles)
        elapsed = time.perf_counter() - started
        assert result.completed and not result.crashed
        return (result.committed_instructions,), elapsed, \
            machine.sim.events_dispatched

    best, keys = run_once(
        lambda: _best_interleaved(("fifo", "wrr"), run), benchmark)
    ratio = best["wrr"] / best["fifo"]
    print(f"\narbiter end-to-end: fifo {best['fifo']:.3f}s, "
          f"wrr {best['wrr']:.3f}s (ratio {ratio:.3f})")
    assert keys["wrr"][0] == keys["fifo"][0]  # same committed work
    if not SMOKE:
        assert ratio <= MAX_ARBITER_OVERHEAD, \
            f"wrr arbitration costs {ratio:.3f}x end-to-end"
