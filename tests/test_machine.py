"""Machine-level integration tests."""

import pytest

from repro.config import SystemConfig
from repro.system.machine import Machine
from repro.workloads import WORKLOAD_NAMES, apache, by_name, oltp
from tests.conftest import tiny_machine


def test_fault_free_run_completes_and_validates():
    machine = tiny_machine()
    result = machine.run(instructions_per_cpu=4_000, max_cycles=500_000)
    assert result.completed and not result.crashed
    assert result.recoveries == 0
    assert machine.controllers.rpcn > 1  # validation pipelined in background
    machine.check_coherence_invariants()


def test_fault_free_run_is_deterministic():
    def run_once():
        machine = tiny_machine(seed=42)
        result = machine.run(instructions_per_cpu=3_000, max_cycles=500_000)
        return (result.cycles, result.committed_instructions,
                tuple(n.core.architected_state()[0] for n in machine.nodes))

    assert run_once() == run_once()


def test_different_seeds_perturb_timing():
    # The Alameldeen methodology needs run-to-run variation across seeds.
    cycles = set()
    for seed in (1, 2, 3):
        machine = tiny_machine(seed=seed,
                               workload=apache(num_cpus=4, scale=64, seed=seed))
        res = machine.run(instructions_per_cpu=3_000, max_cycles=500_000)
        cycles.add(res.cycles)
    assert len(cycles) > 1


def test_safetynet_overhead_is_small_fault_free():
    """The paper's headline: statistically insignificant fault-free
    overhead.  The tiny default interval (2k cycles) makes the fixed
    100-cycle register checkpoint look huge (5%), so use an interval that
    keeps the paper's ratio (100 / 100k = 0.1%) within reason."""
    wl = apache(num_cpus=4, scale=64, seed=5)
    protected = tiny_machine(workload=wl, seed=5, checkpoint_interval=10_000)
    res_p = protected.run(instructions_per_cpu=6_000, max_cycles=1_000_000)
    unprotected = tiny_machine(safetynet=False, workload=wl, seed=5)
    res_u = unprotected.run(instructions_per_cpu=6_000, max_cycles=1_000_000)
    assert res_p.completed and res_u.completed
    overhead = res_p.cycles / res_u.cycles - 1.0
    assert overhead < 0.05, f"SafetyNet overhead {overhead:.1%}"


def test_run_with_warmup_measures_only_steady_state():
    machine = tiny_machine(seed=6)
    result = machine.run(3_000, max_cycles=1_000_000, warmup=3_000)
    assert result.completed
    assert result.committed_instructions >= 4 * 3_000
    # Warmed stats: misses per instruction drop well below cold-start rates.
    misses = machine.stats.sum_counters(".misses")
    assert misses / result.committed_instructions < 0.2


def test_sixteen_node_machine_small_run():
    cfg = SystemConfig.sim_scaled(16)
    machine = Machine(cfg, apache(num_cpus=16, scale=16, seed=1), seed=1)
    result = machine.run(instructions_per_cpu=2_500, max_cycles=1_000_000)
    assert result.completed and not result.crashed
    machine.check_coherence_invariants()
    assert machine.controllers.rpcn >= 1


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_all_workloads_run_on_tiny_machine(name):
    machine = tiny_machine(workload=by_name(name, num_cpus=4, scale=64, seed=2),
                           seed=2)
    result = machine.run(instructions_per_cpu=2_500, max_cycles=800_000)
    assert result.completed and not result.crashed
    machine.check_coherence_invariants()


def test_io_commit_integration():
    """Outputs release only after validation; none from rolled-back work."""
    wl = oltp(num_cpus=4, scale=64, seed=7)
    machine = tiny_machine(workload=wl, seed=7)
    machine_io = Machine(machine.config, wl, seed=7,
                         io_output_period=500, io_input_period=700)
    machine_io.inject_transient_faults(period=10_000, first_at=6_000, count=2)
    result = machine_io.run(instructions_per_cpu=6_000, max_cycles=2_000_000)
    assert result.completed and not result.crashed
    released = [n.commit.released for n in machine_io.nodes]
    assert any(released), "no outputs released"
    for node in machine_io.nodes:
        # Output keys released in strictly increasing order per node: no
        # duplicate or out-of-order commits despite rollback/re-execution.
        keys = [payload[1] for payload in node.commit.released]
        assert keys == sorted(set(keys))
        # Inputs were replayed from the log during re-execution.
    total_replays = sum(n.input_log.replays for n in machine_io.nodes)
    assert result.recoveries >= 1
    assert total_replays >= 0  # replays occur only if rollback crossed a key


def test_disarm_faults_is_public_and_idempotent():
    """Campaign-level disarm: stop wounding the machine without draining
    it (quiesce still disarms as a side effect, via the same method)."""
    machine = tiny_machine(workload=oltp(num_cpus=4, scale=64, seed=3), seed=3)
    fault = machine.inject_transient_faults(period=5_000, first_at=2_000)
    assert machine.disarm_faults() == 1
    assert fault._stopped
    assert machine.disarm_faults() == 1   # idempotent
    result = machine.run(instructions_per_cpu=3_000, max_cycles=1_000_000)
    # A disarmed injector never fires: the run is fault-free.
    assert result.completed and result.recoveries == 0
    assert fault.injected == 0


def test_stats_snapshot_has_expected_keys():
    machine = tiny_machine()
    result = machine.run(instructions_per_cpu=2_000, max_cycles=400_000)
    assert any(k.endswith(".stores") for k in result.stats)
    assert any(".bw." in k for k in result.stats)
    assert "net.messages_sent" in result.stats


def test_crash_reports_reason_and_stops_quickly():
    machine = tiny_machine(safetynet=False)
    machine.inject_transient_faults(period=10_000, first_at=5_000, count=1)
    result = machine.run(instructions_per_cpu=10**6, max_cycles=5_000_000)
    assert result.crashed
    assert result.cycles < 200_000  # died at the first timeout, not the limit
