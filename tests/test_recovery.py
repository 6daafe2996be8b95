"""End-to-end recovery tests: SafetyNet's central correctness claims.

The exact-state test quiesces the machine (so physical state equals the
logical checkpoint state), pins the recovery point, lets execution run on,
then forces a recovery and compares every component's architected state
against the pinned checkpoint.  The skipped-log tests run the same
scenario with a controller that never logs, and show the comparison fails.
"""

from typing import Dict, Set

import pytest

from repro.coherence.cache import CacheController
from repro.coherence.directory import MemoryController
from repro.coherence.state import CacheState
from repro.config import SystemConfig
from repro.interconnect.topology import HalfSwitchId
from repro.system.machine import Machine
from repro.workloads import RandomTester, apache, oltp
from tests.conftest import Driver, tiny_machine


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------
def quiesce(machine: Machine, extra_intervals: int = 3) -> None:
    """Freeze cores, drain all transactions, and let validation advance the
    recovery point over the now-static state."""
    for node in machine.nodes:
        node.core.freeze()

    def drained() -> bool:
        if machine.network.in_flight_count:
            return False
        for node in machine.nodes:
            if node.cache.mshrs or node.cache.wb_txns or node.home.busy:
                return False
        return True

    deadline = machine.sim.now + 500_000
    while not drained() and machine.sim.now < deadline:
        machine.sim.run(limit=machine.sim.now + 500)
    assert drained(), "machine failed to quiesce"
    span = extra_intervals * machine.config.checkpoint_interval
    machine.sim.run(limit=machine.sim.now + span)


def owned_values(machine: Machine) -> Dict[int, int]:
    out = {}
    for node in machine.nodes:
        for addr, (_state, data) in node.cache.owned_state().items():
            out[addr] = data
    return out


def memory_values(machine: Machine) -> Dict[int, int]:
    out = {}
    for node in machine.nodes:
        for addr, value in node.home.values.items():
            out[addr] = value
    return out


def owner_pointers(machine: Machine) -> Dict[int, int]:
    out = {}
    for node in machine.nodes:
        for addr, owner in node.home.owner_map().items():
            if owner is not None:
                out[addr] = owner
    return out


def arch_snapshot(machine: Machine) -> Dict:
    return {
        "cores": [n.core.architected_state() for n in machine.nodes],
        "owned": owned_values(machine),
        "memory": memory_values(machine),
        "owners": owner_pointers(machine),
    }


# ---------------------------------------------------------------------------
# Exact-state recovery consistency
# ---------------------------------------------------------------------------
def recover_to_pinned_checkpoint(workload_name: str):
    """Run, quiesce and pin a checkpoint, run on, then force a recovery.

    Returns the machine, the architected snapshot at the pinned
    checkpoint, and the snapshot after the recovery."""
    if workload_name == "random":
        wl = RandomTester(num_cpus=4, seed=5, blocks=24)
    elif workload_name == "oltp":
        wl = oltp(num_cpus=4, scale=64, seed=5)
    else:
        wl = apache(num_cpus=4, scale=64, seed=5)
    machine = tiny_machine(workload=wl, seed=5)
    machine.clock.start()
    for node in machine.nodes:
        node.validation.start()
    for node in machine.nodes:
        node.core.start(6_000)
    machine.sim.run(limit=25_000)

    # Quiesce, let the recovery point advance over static state, snapshot.
    quiesce(machine)
    pinned_rpcn = machine.controllers.rpcn
    assert pinned_rpcn > 1, "validation never advanced"
    reference = arch_snapshot(machine)

    # Pin the recovery point by silencing validation, then run on.
    for node in machine.nodes:
        node.validation.stop()
    for node in machine.nodes:
        node.core.resume()
        node.core.start(12_000)
    machine.sim.run(limit=machine.sim.now + 30_000)
    assert arch_snapshot(machine) != reference  # state really moved on

    # Force a recovery (any detection path leads here).
    machine.recovery.report_fault("test-injected fault")
    machine.sim.run(limit=machine.sim.now + 100_000)
    assert machine.recovery.stats.recoveries == 1
    assert machine.controllers.rpcn == pinned_rpcn
    return machine, reference, arch_snapshot(machine)


def mismatched_parts(reference: Dict, recovered: Dict) -> Set[str]:
    """The parts of the architected state that differ between two
    snapshots (a block absent from memory reads as 0)."""
    parts = {part for part in ("cores", "owned", "owners")
             if recovered[part] != reference[part]}
    ref, rec = reference["memory"], recovered["memory"]
    if any(ref.get(addr, 0) != rec.get(addr, 0) for addr in set(ref) | set(rec)):
        parts.add("memory")
    return parts


@pytest.mark.parametrize("workload_name", ["apache", "oltp", "random"])
def test_recovery_restores_exact_checkpoint_state(workload_name):
    machine, reference, recovered = recover_to_pinned_checkpoint(workload_name)
    assert mismatched_parts(reference, recovered) == set()
    machine.check_coherence_invariants()
    # Invariant 6: restored blocks always fit their sets.
    assert machine.stats.sum_counters(".recovery_set_overflow") == 0


@pytest.mark.parametrize("controller, undone", [
    (CacheController, "owned"),     # cache blocks keep post-checkpoint data
    (MemoryController, "owners"),   # the directory keeps post-checkpoint owners
])
def test_exact_state_check_catches_skipped_log(monkeypatch, controller, undone):
    """The exact-state check can fail: a controller whose once-per-interval
    decision always answers "already logged" leaves state the rollback
    cannot undo.  Like every mutation, the patch is on the class before
    the machine is built: each node binds its handlers into its routing
    table when it is built."""
    monkeypatch.setattr(controller, "_needs_log", lambda self, *args: False)
    machine, reference, recovered = recover_to_pinned_checkpoint("apache")
    assert mismatched_parts(reference, recovered) == {undone}
    with pytest.raises(AssertionError, match="dir says"):
        machine.check_coherence_invariants()


def test_recovery_restores_upgraded_owned_block():
    """A pure upgrade (a store to an O block: the home grants M without
    data) is a store like any other: the CLB records the block as it was
    before the store, O, so recovering to the checkpoint before the
    upgrade gives back the O block, not M."""
    d = Driver(tiny_machine())
    d.access(0, 0x40, is_store=True, value=1)
    d.access(1, 0x40, is_store=False)           # node 0 goes M -> O
    d.settle()
    cache = d.machine.nodes[0].cache
    for node in d.machine.nodes:
        node.cache.on_edge(2)
        node.home.on_edge(2)
    snapshot = cache.owned_state()
    assert snapshot == {0x40: (CacheState.OWNED, 1)}
    d.access(0, 0x40, is_store=True, value=2)   # an UPGRADE
    d.settle()
    assert cache.owned_state() == {0x40: (CacheState.MODIFIED, 2)}
    assert cache.c_upgrades.value == 1
    assert [(e.addr, e.payload, e.tag) for e in cache.clb.unroll_from(2)] \
        == [(0x40, (CacheState.OWNED, 1, 2), 2)]
    cache.recover_to(2)
    assert cache.owned_state() == snapshot


def test_recovery_discards_unvalidated_cache_blocks():
    machine = tiny_machine()
    machine.clock.start()
    for node in machine.nodes:
        node.validation.start()
    quiesce(machine, extra_intervals=2)
    r = machine.controllers.rpcn
    for node in machine.nodes:
        node.validation.stop()
    # Write a block after the pinned checkpoint...
    cache = machine.nodes[1].cache
    done = []
    cache.start_miss(0x2000, True, 4242, lambda: done.append(1))
    machine.sim.run(limit=machine.sim.now + 20_000)
    assert done and cache.lookup(0x2000).cn is not None
    # ...recovery must make it vanish (it postdates the recovery point).
    machine.recovery.report_fault("test")
    machine.sim.run(limit=machine.sim.now + 100_000)
    assert cache.lookup(0x2000) is None
    home = machine.nodes[machine.home_of(0x2000)].home
    assert home.dir_entry(0x2000).owner is None


# ---------------------------------------------------------------------------
# Fault-to-recovery paths (the paper's two experiments, small scale)
# ---------------------------------------------------------------------------
def test_dropped_message_recovers_and_completes():
    machine = tiny_machine(workload=oltp(num_cpus=4, scale=64, seed=2), seed=2)
    machine.inject_transient_faults(period=20_000, first_at=6_000, count=2)
    result = machine.run(instructions_per_cpu=6_000, max_cycles=600_000)
    assert not result.crashed
    assert result.completed
    assert result.recoveries >= 1
    assert result.lost_instructions > 0
    machine.check_coherence_invariants()


def test_dropped_message_crashes_unprotected():
    machine = tiny_machine(
        safetynet=False, workload=oltp(num_cpus=4, scale=64, seed=2), seed=2
    )
    machine.inject_transient_faults(period=20_000, first_at=6_000, count=2)
    result = machine.run(instructions_per_cpu=6_000, max_cycles=600_000)
    assert result.crashed
    assert not result.completed
    assert "timeout" in (result.crash_reason or "")


def test_killed_switch_recovers_reconfigures_and_completes():
    machine = tiny_machine(workload=apache(num_cpus=4, scale=64, seed=3), seed=3)
    machine.inject_switch_kill(HalfSwitchId("ew", 1, 0), at_cycle=8_000)
    result = machine.run(instructions_per_cpu=8_000, max_cycles=900_000)
    assert not result.crashed
    assert result.completed
    assert machine.recovery.stats.reconfigurations == 1
    # Routing avoids the corpse afterwards.
    dead = HalfSwitchId("ew", 1, 0)
    for s in range(4):
        for d in range(4):
            if s != d:
                assert dead not in machine.routing.switches_on_path(s, d)
    machine.check_coherence_invariants()


def test_switch_kill_outside_torus_is_rejected():
    # Regression: ew(9,0) on a 2x2 machine used to "fire", be listed as
    # dead, and leave the run cycle-identical to a clean one.
    machine = tiny_machine(workload=apache(num_cpus=4, scale=64, seed=3), seed=3)
    with pytest.raises(ValueError):
        machine.inject_switch_kill(HalfSwitchId("ew", 9, 0), at_cycle=5_000)


def test_killed_switch_crashes_unprotected():
    machine = tiny_machine(
        safetynet=False, workload=apache(num_cpus=4, scale=64, seed=3), seed=3
    )
    machine.inject_switch_kill(HalfSwitchId("ew", 1, 0), at_cycle=8_000)
    result = machine.run(instructions_per_cpu=8_000, max_cycles=900_000)
    assert result.crashed


def test_recovery_latency_is_a_speed_bump_not_a_reboot():
    """Paper §4.2: recovery is orders of magnitude faster than a reboot —
    well under a millisecond (1M cycles) at any reasonable scale."""
    machine = tiny_machine(workload=apache(num_cpus=4, scale=64, seed=4), seed=4)
    machine.inject_transient_faults(period=25_000, first_at=10_000, count=1)
    result = machine.run(instructions_per_cpu=8_000, max_cycles=900_000)
    assert result.recoveries == 1
    latency = machine.recovery.stats.recovery_latencies[0]
    assert latency < 1_000_000
    # Lost work is bounded by outstanding checkpoints x interval plus the
    # detection delay (timeout), at ~1 IPC per core.
    cfg = machine.config
    bound = 4 * (
        cfg.checkpoint_interval * (cfg.outstanding_checkpoints + 2)
        + cfg.request_timeout
    )
    assert result.lost_instructions < bound


def test_repeated_faults_do_not_livelock():
    # Period chosen to keep several injections landing on coherence
    # messages (drops of validation-coordination messages are absorbed by
    # the re-announce resync without a recovery).
    machine = tiny_machine(workload=oltp(num_cpus=4, scale=64, seed=6), seed=6)
    machine.inject_transient_faults(period=8_000, first_at=5_000)
    result = machine.run(instructions_per_cpu=6_000, max_cycles=2_000_000)
    assert not result.crashed
    assert result.completed
    assert result.recoveries >= 3
    # Forward progress despite re-execution: committed == target.
    assert result.committed_instructions >= 4 * 6_000


def test_livelock_guard_gives_up_eventually():
    machine = tiny_machine(
        workload=apache(num_cpus=4, scale=64, seed=7), seed=7,
        max_recoveries=3,
    )
    machine.inject_transient_faults(period=4_000, first_at=2_000)
    result = machine.run(instructions_per_cpu=50_000, max_cycles=3_000_000)
    assert machine.recovery.stats.recoveries <= 3
    assert result.crashed
    assert "livelock" in (result.crash_reason or "")


def test_watchdog_fires_on_stalled_recovery_point():
    """A lost validation message stalls the recovery point; the watchdog
    must convert the stall into a recovery (paper §3.5)."""
    machine = tiny_machine(workload=apache(num_cpus=4, scale=64, seed=8), seed=8)
    # Drop every VALIDATE_READY message: the recovery point can never move.
    from repro.interconnect.messages import MessageKind
    machine.network.add_drop_hook(
        lambda msg, vertex: msg.kind == MessageKind.VALIDATE_READY
    )
    result = machine.run(instructions_per_cpu=30_000,
                         max_cycles=machine.config.watchdog_timeout * 4)
    assert machine.recovery.stats.faults_reported >= 1
    assert any("watchdog" in f for f in machine.recovery.stats.fault_log)


def test_random_tester_stress_with_faults():
    """The paper's random-tester methodology: false sharing, reordering,
    and fault injection for protocol confidence."""
    machine = tiny_machine(workload=RandomTester(num_cpus=4, seed=11, blocks=16),
                           seed=11)
    machine.inject_transient_faults(period=18_000, first_at=7_000)
    result = machine.run(instructions_per_cpu=4_000, max_cycles=2_000_000)
    assert not result.crashed
    assert result.completed
    machine.check_coherence_invariants()
    assert machine.stats.sum_counters(".recovery_set_overflow") == 0
