"""Directed corner-case tests for the home directory controller."""

import pytest

from repro.coherence.state import CacheState, MEMORY_OWNER
from repro.experiments import RunSpec, build_machine
from repro.interconnect.messages import Message, MessageKind
from tests.conftest import Driver, tiny_machine

BLOCK = 0x1000  # home node 0


def make_driver(**kw) -> Driver:
    return Driver(tiny_machine(**kw))


def test_busy_home_queues_competing_requests():
    d = make_driver()
    cache1 = d.machine.nodes[1].cache
    cache2 = d.machine.nodes[2].cache
    done = {1: [], 2: []}
    cache1.start_miss(BLOCK, True, 111, lambda: done[1].append(d.sim.now))
    cache2.start_miss(BLOCK, True, 222, lambda: done[2].append(d.sim.now))
    d.settle(50_000)
    assert done[1] and done[2]
    # Serialised: one completed strictly before the other, and the final
    # owner holds the later writer's data.
    home = d.machine.nodes[0].home
    winner = home.dir_entry(BLOCK).owner
    assert winner in (1, 2)
    d.machine.check_coherence_invariants()


def test_home_queue_overflow_nacks_and_retry_succeeds():
    d = make_driver(home_queue_depth=0, nack_retry_delay=200)
    c1 = d.machine.nodes[1].cache
    c2 = d.machine.nodes[2].cache
    done = []
    c1.start_miss(BLOCK, True, 1, lambda: done.append("c1"))
    c2.start_miss(BLOCK, True, 2, lambda: done.append("c2"))
    d.settle(80_000)
    assert sorted(done) == ["c1", "c2"]
    nacks = (d.machine.stats.counter("node1.cache.nacks_received").value
             + d.machine.stats.counter("node2.cache.nacks_received").value)
    assert nacks >= 1
    d.machine.check_coherence_invariants()


def test_stale_putm_gets_wb_stale():
    """A writeback that loses the race to a forwarded GETM must not write
    stale data to memory."""
    d = make_driver()
    cache1 = d.machine.nodes[1].cache
    d.access(1, BLOCK, is_store=True, value=10)
    # Force node1 to start a writeback of BLOCK while a GETM from node2
    # races with it: issue the PUTM manually, then a GETM immediately.
    bucket = cache1._set_of(BLOCK)
    victim = bucket[BLOCK]
    assert cache1._start_writeback(victim, bucket)
    done = []
    d.machine.nodes[2].cache.start_miss(BLOCK, True, 20, lambda: done.append(1))
    d.settle(80_000)
    assert done
    home = d.machine.nodes[0].home
    # Whichever order the home processed them, the final state is coherent
    # and node2's store survives somewhere consistent.
    d.machine.check_coherence_invariants()
    assert d.machine.memory_value(BLOCK) == 20
    assert not cache1.wb_buffer
    assert not home.busy


def test_putm_from_owned_state_keeps_sharers_valid():
    d = make_driver()
    d.access(1, BLOCK, is_store=True, value=5)
    d.access(2, BLOCK, is_store=False)          # node1 -> O, node2 shares
    d.settle()
    cache1 = d.machine.nodes[1].cache
    bucket = cache1._set_of(BLOCK)
    assert cache1._start_writeback(bucket[BLOCK], bucket)
    d.settle(50_000)
    home = d.machine.nodes[0].home
    assert home.dir_entry(BLOCK).owner is MEMORY_OWNER
    assert home.value_of(BLOCK) == 5
    # The sharer's copy is still valid (reads hit, data correct).
    assert d.machine.nodes[2].cache.load_value(BLOCK) == 5
    d.machine.check_coherence_invariants()


def test_home_nacks_2hop_getm_when_its_clb_is_full():
    d = make_driver()
    home = d.machine.nodes[0].home
    # Fill the home CLB completely.
    while not home.clb.is_full():
        home.clb.append(1, 0xDEAD00, (0, None, frozenset(), None))
    before = home.c_nacks_sent.value
    done = []
    d.machine.nodes[1].cache.start_miss(BLOCK, True, 1, lambda: done.append(1))
    d.sim.run(limit=d.sim.now + 3_000)
    assert home.c_nacks_sent.value > before
    assert not done  # the requestor is retrying, not completing
    # Free the CLB (validation would): the retry then succeeds.
    home.clb.free_below(10**9)
    d.settle(30_000)
    assert done
    d.machine.check_coherence_invariants()


def test_mesi_copyback_into_a_full_home_clb_completes():
    """A COPYBACK cannot be NACKed (the ex-owner already downgraded), so
    the home logs it past a full CLB instead of raising ClbFullError out
    of Node.deliver, which killed this run at cycle 504,183."""
    spec = RunSpec(workload="apache", protocol="mesi", torus_width=2,
                   torus_height=2, scale=64, instructions=1_500,
                   clb_bytes=432, seed=1)
    machine = build_machine(spec)
    result = machine.run(spec.instructions, max_cycles=spec.max_cycles)
    assert result.completed and not result.crashed
    assert any(n.home_clb.peak_occupancy > n.home_clb.capacity
               for n in machine.nodes)


def test_directory_latency_applies_to_forwards():
    d = make_driver()
    d.access(1, BLOCK, is_store=True, value=1)
    t0 = d.sim.now
    d.access(2, BLOCK, is_store=False)  # 3-hop: dir latency + 3 traversals
    three_hop = d.sim.now - t0
    d2 = make_driver()
    t0 = d2.sim.now
    d2.access(1, BLOCK, is_store=False)  # 2-hop from memory
    two_hop = d2.sim.now - t0
    assert three_hop > 0 and two_hop > 0


def test_final_ack_frees_busy_and_pops_queue():
    d = make_driver()
    home = d.machine.nodes[0].home
    d.access(1, BLOCK, is_store=False)
    d.settle()
    assert not home.busy
    assert not home.queues
