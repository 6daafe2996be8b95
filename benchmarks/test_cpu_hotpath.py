"""CPU-side dispatch-mix guard: request timeouts stay off the kernel.

Dead ``cache.timeout`` events were ~5-7% of all kernel dispatches on a
busy run when every request armed its own kernel event.  Requestor
timeouts now live in per-controller deadline tables
(:mod:`repro.sim.deadlines`) swept by one re-arming event, and those
sweeps must stay under 1% of dispatches on a default 4x4 jbb run.
Measured with the profiling harness
(:class:`repro.sim.profile.DispatchProfile`).
"""

from repro.config import SystemConfig
from repro.sim.profile import DispatchProfile
from repro.system.machine import Machine
from repro.workloads import by_name

from benchmarks.conftest import run_once, smoke_mode

SMOKE = smoke_mode()

MAX_TIMEOUT_FRAC = 0.01
INSTRUCTIONS = 1_000 if SMOKE else 4_000


def _timeout_fraction() -> float:
    """Share of kernel dispatches spent on timeout machinery."""
    config = SystemConfig.sim_scaled(16)
    machine = Machine(
        config, by_name("jbb", num_cpus=16, scale=16, seed=1), seed=1)
    profile = DispatchProfile()
    machine.sim.tracer = profile
    machine.run(INSTRUCTIONS, max_cycles=10_000_000)
    return profile.dispatch_fraction("cache.timeout_sweep")


def test_timeout_dispatch_fraction_collapses(benchmark):
    frac = run_once(_timeout_fraction, benchmark)
    print(f"\ntimeout dispatch fraction: {frac:.2%}")
    assert frac < MAX_TIMEOUT_FRAC, (
        f"timeout machinery is {frac:.2%} of dispatches "
        f"(claimed <{MAX_TIMEOUT_FRAC:.0%})")
