"""Event-loop hot-path guards: heap floor and tracer transparency.

Every simulated cycle of every component funnels through the kernel's
dispatch loop, so regressions here multiply across the whole
reproduction.  Two kinds of guard live here:

* **Heap floor** — the kernel keeps plain ``(when, seq, callback,
  label)`` tuples on the heap, with no per-event object, so sifting
  compares machine integers and scheduling allocates one tuple;
  swapping the entries back to rich-compared objects costs ~25% of
  end-to-end simulator throughput, which the throughput floor catches.  The floor
  is set ~4x below the throughput measured on a modest dev machine
  (~1M events/s) so that CI noise never trips it while a real hot-path
  regression still does.
* **Tracer transparency** — ``Simulator.run`` is the one dispatch loop,
  and an unattached tracer costs it one test of a local per dispatch;
  a machine run with a ``DispatchProfile`` attached must be
  bit-identical to the untraced run.
"""

from time import perf_counter

from repro.sim.kernel import Simulator
from repro.sim.profile import DispatchProfile

from benchmarks.conftest import smoke_mode

SMOKE = smoke_mode()

# Dispatches per measured run; large enough to amortise setup noise.
# REPRO_BENCH_SMOKE=1 (the CI smoke step) shrinks the run and lowers the
# floor accordingly — short runs amortise interpreter warmup worse.
EVENTS = 20_000 if SMOKE else 200_000

# Conservative floor (events/second).  A genuine hot-path regression
# (e.g. per-comparison callbacks during heap sifting) costs well over
# the slack this leaves for slow CI hardware.
MIN_EVENTS_PER_SECOND = 60_000 if SMOKE else 150_000


def _self_scheduling_chain(n: int) -> Simulator:
    """A worst-case-ish queue: every dispatch schedules another event."""
    sim = Simulator()
    remaining = [n]

    def fire() -> None:
        remaining[0] -= 1
        if remaining[0]:
            sim.schedule_after(1, fire, "hotpath")

    sim.schedule(1, fire, "hotpath")
    return sim


def test_event_loop_throughput(benchmark):
    def run_chain():
        sim = _self_scheduling_chain(EVENTS)
        sim.run()
        assert sim.events_dispatched == EVENTS
        return sim

    sim = benchmark(run_chain)
    seconds = benchmark.stats["mean"]
    rate = EVENTS / seconds
    print(f"\nkernel event loop: {rate:,.0f} events/s "
          f"({seconds * 1e9 / EVENTS:.0f} ns/event)")
    assert rate > MIN_EVENTS_PER_SECOND, (
        f"event loop regressed to {rate:,.0f} events/s "
        f"(floor {MIN_EVENTS_PER_SECOND:,})"
    )


def test_no_tracer_pays_no_dispatch_overhead():
    """The tracer-off floor: with ``sim.tracer`` left None, the dispatch
    loop must not be slower than the traced loop (which times every
    callback) beyond measurement noise.  This is what keeps observability
    opt-in — a change that folds per-event tracing work into the common
    path (e.g. timing every callback, or re-reading the tracer attribute
    on each pop) shows up here as the untraced time approaching the
    traced one."""
    events = EVENTS // 2
    best = {False: float("inf"), True: float("inf")}
    for _ in range(5):
        # Interleaved so machine-speed drift cannot bias the ratio.
        for traced in (False, True):
            sim = _self_scheduling_chain(events)
            if traced:
                sim.tracer = DispatchProfile()
            started = perf_counter()
            sim.run()
            elapsed = perf_counter() - started
            assert sim.events_dispatched == events
            best[traced] = min(best[traced], elapsed)
    print(f"\nuntraced {events / best[False]:,.0f} events/s vs "
          f"traced {events / best[True]:,.0f} events/s")
    # The traced loop does strictly more work (two clock reads and a
    # histogram update per dispatch), so 10% slack is generous: the
    # untraced path regressing to traced cost trips this long before.
    assert best[False] <= best[True] * 1.10, (
        f"tracer-off dispatch path lost its advantage: untraced "
        f"{best[False]:.4f}s vs traced {best[True]:.4f}s for {events:,} events"
    )


def test_dense_same_cycle_bursts(benchmark):
    """Many events at the same cycle (tie-broken by seq) — the pattern
    network fan-out produces; exercises heap behaviour under ties."""
    BURSTS, PER_BURST = 200, 100

    def run_bursts():
        sim = Simulator()
        fired = [0]

        def fire() -> None:
            fired[0] += 1

        for burst in range(BURSTS):
            for _ in range(PER_BURST):
                sim.schedule(burst * 10 + 5, fire, "burst")
        sim.run()
        assert fired[0] == BURSTS * PER_BURST
        return sim

    benchmark(run_bursts)


def test_traced_machine_run_bit_identical():
    """A machine run with a ``DispatchProfile`` attached must be
    bit-identical to the untraced run: same RunResult, same counters,
    same dispatch count and queue depth.  The traced and untraced runs
    share one loop and differ only in the timing branch; this keeps that
    branch from changing what is dispatched."""
    from repro.config import SystemConfig
    from repro.system.machine import Machine
    from repro.workloads import apache

    instructions = 1_000 if SMOKE else 4_000

    def run(traced: bool):
        config = SystemConfig.tiny()
        machine = Machine(
            config, apache(num_cpus=config.num_processors, scale=64, seed=1),
            seed=1)
        machine.inject_transient_faults(period=2_500, first_at=1_200)
        if traced:
            machine.sim.tracer = DispatchProfile()
        result = machine.run(instructions, max_cycles=30_000_000)
        counters = machine.stats.counters_matching("")
        return (result.cycles, result.committed_instructions,
                result.completed, result.crashed, result.recoveries,
                result.lost_instructions, result.reexecuted_instructions,
                machine.sim.events_dispatched, machine.sim.peak_pending,
                counters)

    assert run(traced=False) == run(traced=True), \
        "traced dispatch loop diverged from untraced"
