"""CLB backpressure: the paper sizes CLBs "for performance and not
correctness" (§3.3).

With small CLBs the machine must slow down — CPU store throttling, NACKed
coherence requests, stalled forwards, or in the extreme watchdog-driven
recoveries — but never corrupt state, crash, or deadlock.
"""

import pytest

from repro.coherence.state import CacheState
from repro.workloads import RandomTester, jbb
from tests.conftest import Driver, tiny_machine


def test_store_to_full_clb_throttles_cpu():
    """Direct check of the paper's CPU-throttling mechanism."""
    d = Driver(tiny_machine())
    cache = d.machine.nodes[1].cache
    d.access(1, 0x40, is_store=True, value=1)
    block = cache.lookup(0x40)
    # Cross an edge so the next store must log, then fill the CLB.
    cache.on_edge(cache.ccn + 1)
    while not cache.clb.is_full():
        cache.clb.append(1, 0xBEEF00, ("M", 0, None))
    status, delay = cache.fast_access(0x40, True, 2)
    assert status == "throttle"
    assert delay == d.machine.config.store_throttle_delay
    assert block.data == 1  # the store did not slip through
    # Validation frees space; the retried store then succeeds and logs.
    cache.clb.free_below(10**9)
    status, extra = cache.fast_access(0x40, True, 2)
    assert status == "hit"
    assert extra == d.machine.config.store_log_penalty
    assert block.data == 2


def test_silent_upgrade_to_full_clb_throttles_cpu():
    """Under mesi a store hit on an E block upgrades to M silently, and
    it is a store like any other: into a full CLB it throttles and leaves
    the block E, uncounted; once validation frees space it logs the block
    as E, pays the log penalty and goes to M."""
    d = Driver(tiny_machine(protocol="mesi"))
    cache = d.machine.nodes[1].cache
    d.access(1, 0x40, is_store=False)
    block = cache.lookup(0x40)
    assert block.state == CacheState.EXCLUSIVE
    before = (block.data, block.cn)
    # Cross an edge so the next store must log, then fill the CLB.
    cache.on_edge(cache.ccn + 1)
    while not cache.clb.is_full():
        cache.clb.append(1, 0xBEEF00, ("M", 0, None))
    status, delay = cache.fast_access(0x40, True, 2)
    assert (status, delay) == ("throttle",
                               d.machine.config.store_throttle_delay)
    assert block.state == CacheState.EXCLUSIVE
    assert (block.data, block.cn) == before
    assert cache.c_silent_upgrade.value == 0
    assert cache.c_store_throttles.value == 1
    cache.clb.free_below(10**9)
    status, extra = cache.fast_access(0x40, True, 2)
    assert (status, extra) == ("hit", d.machine.config.store_log_penalty)
    assert (block.state, block.data) == (CacheState.MODIFIED, 2)
    assert cache.c_silent_upgrade.value == 1
    assert [e.payload for e in cache.clb.unroll_from(cache.ccn)] == [
        (CacheState.EXCLUSIVE,) + before]


def test_small_clb_nacks_but_completes_correctly():
    machine = tiny_machine(
        workload=jbb(num_cpus=4, scale=32, seed=3),
        seed=3,
        clb_size_bytes=72 * 48,
        checkpoint_interval=10_000,
    )
    result = machine.run(instructions_per_cpu=6_000, max_cycles=4_000_000)
    assert result.completed
    assert not result.crashed
    nacks = machine.stats.sum_counters(".nacks_sent")
    assert nacks > 0, "small CLB never exerted backpressure"
    machine.check_coherence_invariants()


def test_small_clb_slower_than_large_clb():
    def run(clb_bytes):
        machine = tiny_machine(
            workload=jbb(num_cpus=4, scale=32, seed=4),
            seed=4,
            clb_size_bytes=clb_bytes,
            checkpoint_interval=10_000,
        )
        res = machine.run(instructions_per_cpu=6_000, max_cycles=4_000_000)
        assert res.completed and not res.crashed
        return res.cycles

    slow = run(72 * 40)
    fast = run(72 * 4096)
    assert slow > fast  # Fig. 8's shape at its extreme


def test_pathological_clb_survives_via_recovery_not_deadlock():
    """A hopelessly small CLB turns into watchdog recoveries, never a hang
    or corruption (the paper's deadlock-freedom argument for stalls)."""
    machine = tiny_machine(
        workload=RandomTester(num_cpus=4, seed=6, blocks=48, store_frac=0.7),
        seed=6,
        clb_size_bytes=72 * 16,
        checkpoint_interval=20_000,
        max_recoveries=200,
    )
    result = machine.run(instructions_per_cpu=3_000, max_cycles=1_500_000)
    assert not result.crashed
    # Either it limps to completion or it is still making recovery-mediated
    # progress when the cycle budget expires.
    assert result.completed or result.recoveries >= 1
    machine.check_coherence_invariants()


def test_clb_occupancy_bounded_by_capacity():
    machine = tiny_machine(
        workload=jbb(num_cpus=4, scale=32, seed=5),
        seed=5,
        clb_size_bytes=72 * 48,
        checkpoint_interval=10_000,
    )
    machine.run(instructions_per_cpu=5_000, max_cycles=3_000_000)
    for node in machine.nodes:
        assert node.cache_clb.peak_occupancy <= node.cache_clb.capacity
        assert node.home_clb.peak_occupancy <= node.home_clb.capacity
