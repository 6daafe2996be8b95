"""Property-based system tests (hypothesis).

These randomise workload character, fault timing, and configuration knobs,
then assert the system invariants: coherence safety (on the quiesced
machine), recovery consistency (a recovered machine is coherent and
still completes its work, and no restored cache set overflows),
liveness (runs complete, or keep committing at extreme fault rates),
and bounded unvalidated state (CCN - RPCN stays within the
outstanding-checkpoint window).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.interconnect.topology import HalfSwitchId
from repro.system.machine import Machine
from repro.workloads import RandomTester, by_name

SLOW = dict(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def build_machine(seed, blocks, store_frac, safetynet=True, **cfg):
    config = SystemConfig.tiny(safetynet_enabled=safetynet, **cfg)
    workload = RandomTester(num_cpus=4, seed=seed, blocks=blocks,
                            store_frac=store_frac)
    return Machine(config, workload, seed=seed)


@settings(**SLOW)
@given(
    seed=st.integers(1, 10**6),
    blocks=st.integers(4, 64),
    store_frac=st.floats(0.1, 0.9),
)
def test_fault_free_random_traffic_preserves_coherence(seed, blocks, store_frac):
    machine = build_machine(seed, blocks, store_frac)
    result = machine.run(instructions_per_cpu=1_500, max_cycles=600_000)
    assert result.completed and not result.crashed
    assert machine.quiesce()
    machine.check_coherence_invariants()
    # Every block has a single well-defined architected value.
    for b in range(blocks):
        machine.memory_value(b << 6)


@settings(**SLOW)
@given(
    seed=st.integers(1, 10**6),
    fault_period=st.integers(8_000, 40_000),
    first_at=st.integers(2_000, 20_000),
    blocks=st.integers(8, 48),
)
def test_transient_faults_never_crash_protected_machine(
    seed, fault_period, first_at, blocks
):
    # Disable the livelock guard: at the extreme fault rates this test
    # explores (down to one fault per 8k cycles against a 4k-cycle
    # detection timeout) the machine legitimately spends most of its time
    # recovering — the property is that it stays correct and keeps making
    # forward progress, not that it is fast.
    machine = build_machine(seed, blocks, 0.5, max_recoveries=10**9)
    machine.inject_transient_faults(period=fault_period, first_at=first_at)
    result = machine.run(instructions_per_cpu=1_500, max_cycles=2_500_000)
    assert not result.crashed
    if fault_period >= 20_000:
        assert result.completed  # sane fault rates: finishes comfortably
    else:
        assert result.completed or result.committed_instructions > 0
    # Invariants are defined on quiesced state; a run cut off mid-flight
    # legitimately has transactions (and thus ownership moves) in the air.
    assert machine.quiesce()
    machine.check_coherence_invariants()
    assert machine.stats.sum_counters(".recovery_set_overflow") == 0


@settings(**SLOW)
@given(
    seed=st.integers(1, 10**6),
    plane=st.sampled_from(["ew", "ns"]),
    x=st.integers(0, 1),
    y=st.integers(0, 1),
    at_cycle=st.integers(3_000, 30_000),
)
def test_any_single_half_switch_death_is_survivable(seed, plane, x, y, at_cycle):
    machine = build_machine(seed, 24, 0.4)
    machine.inject_switch_kill(HalfSwitchId(plane, x, y), at_cycle=at_cycle)
    result = machine.run(instructions_per_cpu=1_500, max_cycles=2_500_000)
    assert not result.crashed
    assert result.completed
    assert machine.quiesce()
    machine.check_coherence_invariants()


@settings(**SLOW)
@given(
    seed=st.integers(1, 10**6),
    workload_name=st.sampled_from(["apache", "oltp", "jbb", "slashcode", "barnes"]),
)
def test_recovery_consistency_across_workloads(seed, workload_name):
    """Force a recovery mid-run; afterwards the machine must be coherent
    and still complete the full workload."""
    config = SystemConfig.tiny()
    workload = by_name(workload_name, num_cpus=4, scale=64, seed=seed)
    machine = Machine(config, workload, seed=seed)
    fired = []

    def force_fault():
        if machine.is_active():
            machine.recovery.report_fault("property-test fault")
            fired.append(True)

    machine.sim.schedule(9_000, force_fault)
    result = machine.run(instructions_per_cpu=3_000, max_cycles=2_000_000)
    assert result.completed and not result.crashed
    if fired:
        assert machine.recovery.stats.recoveries == 1
    assert machine.quiesce()
    machine.check_coherence_invariants()


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(1, 10**6),
    interval=st.integers(1_500, 6_000),
    outstanding=st.integers(1, 6),
)
def test_validation_window_respected(seed, interval, outstanding):
    """CCN - RPCN never exceeds outstanding + slack while running; the
    outstanding-checkpoint throttle bounds unvalidated state."""
    config = SystemConfig.tiny(
        checkpoint_interval=interval, outstanding_checkpoints=outstanding
    )
    workload = RandomTester(num_cpus=4, seed=seed, blocks=24)
    machine = Machine(config, workload, seed=seed)
    violations = []

    def watch():
        if machine.is_active():
            gap = max(
                machine.clock.ccn(n) for n in range(4)
            ) - machine.controllers.rpcn
            # +2 slack: one interval in flight plus broadcast latency.
            if gap > outstanding + 2:
                progressing = any(not n.core.throttled and not n.core.done
                                  for n in machine.nodes)
                if progressing:
                    violations.append(gap)
            machine.sim.schedule_after(interval, watch)

    machine.sim.schedule(interval, watch)
    result = machine.run(instructions_per_cpu=1_200, max_cycles=1_200_000)
    assert not result.crashed
    assert not violations
