"""Tests for the snooping-protocol variant (paper footnote 1).

The key property under test: with a totally ordered interconnect, the
coherence-request count is a valid logical time base — every component
independently assigns every transaction to the same checkpoint interval,
with no checkpoint clock or skew reasoning at all (paper §2.3).
"""

import pytest

from repro.coherence.snooping import SnoopingSystem, interval_of
from repro.coherence.state import CacheState
from repro.interconnect.messages import Message, MessageKind
from repro.interconnect.ordered import OrderedBus
from repro.sim.kernel import Simulator
from repro.sim.stats import StatsRegistry

BLOCK = 0x40


def drive(system, fn, timeout=100_000):
    done = []
    fn(lambda *a: done.append(a))
    deadline = system.sim.now + timeout
    while not done and system.sim.now < deadline and system.sim.pending():
        system.sim.step()
    assert done, "operation never completed"
    return done[0]


# ---------------------------------------------------------------------------
# Ordered bus
# ---------------------------------------------------------------------------
def test_bus_delivers_in_global_order_to_all_subscribers():
    sim = Simulator()
    bus = OrderedBus(sim)
    seen = {0: [], 1: [], 2: []}
    for i in range(3):
        bus.subscribe(lambda msg, idx, i=i: seen[i].append((idx, msg.addr)))
    for addr in (0x40, 0x80, 0xC0, 0x100):
        bus.broadcast(Message(MessageKind.GETS, src=0, dst=-1, addr=addr))
    sim.run()
    assert seen[0] == seen[1] == seen[2]
    assert [idx for idx, _ in seen[0]] == [0, 1, 2, 3]


def test_bus_serialises_concurrent_broadcasts():
    sim = Simulator()
    bus = OrderedBus(sim, address_cycles=10)
    times = []
    bus.subscribe(lambda msg, idx: times.append(sim.now))
    for addr in (0x40, 0x80, 0xC0):
        bus.broadcast(Message(MessageKind.GETS, src=0, dst=-1, addr=addr))
    sim.run()
    assert times[1] - times[0] >= 10
    assert times[2] - times[1] >= 10


def test_interval_of_request_count():
    assert interval_of(0, 64) == 1
    assert interval_of(63, 64) == 1
    assert interval_of(64, 64) == 2
    assert interval_of(640, 64) == 11


# ---------------------------------------------------------------------------
# Snooping MOSI protocol
# ---------------------------------------------------------------------------
def test_load_from_memory_then_cache_to_cache():
    system = SnoopingSystem(num_caches=3)
    system.memory.values[BLOCK] = 77
    (value,) = drive(system, lambda done: system.caches[0].load(BLOCK, done))
    assert value == 77
    drive(system, lambda done: system.caches[1].store(BLOCK, 99, done))
    (value2,) = drive(system, lambda done: system.caches[2].load(BLOCK, done))
    assert value2 == 99  # dirty data served cache-to-cache
    system.check_invariants()


def test_getm_invalidates_everyone_else():
    system = SnoopingSystem(num_caches=4)
    for reader in (0, 1, 2):
        drive(system, lambda done, r=reader: system.caches[r].load(BLOCK, done))
    drive(system, lambda done: system.caches[3].store(BLOCK, 5, done))
    for reader in (0, 1, 2):
        assert BLOCK not in system.caches[reader].blocks
    assert system.caches[3].blocks[BLOCK].state == CacheState.MODIFIED
    system.check_invariants()


def test_all_components_agree_on_transaction_intervals():
    """The footnote-1 claim: request-count logical time needs no clock."""
    system = SnoopingSystem(num_caches=4, requests_per_checkpoint=4)
    for i in range(20):
        cache = system.caches[i % 4]
        addr = (i % 5) << 6
        if i % 2:
            drive(system, lambda done, c=cache, a=addr: c.store(a, i, done))
        else:
            drive(system, lambda done, c=cache, a=addr: c.load(a, done))
    ccns = {c.ccn for c in system.caches} | {system.memory.ccn}
    assert len(ccns) == 1, f"components disagree on logical time: {ccns}"


def test_ownership_transfer_logs_at_bus_order_point():
    system = SnoopingSystem(num_caches=2, requests_per_checkpoint=4)
    drive(system, lambda done: system.caches[0].store(BLOCK, 1, done))
    # Advance logical time past the block's CN by issuing other requests.
    for i in range(1, 9):
        drive(system, lambda done, a=(i << 6): system.caches[1].load(a, done))
    before = system.caches[0].clb.occupancy
    drive(system, lambda done: system.caches[1].store(BLOCK, 2, done))
    assert system.caches[0].clb.occupancy == before + 1
    assert BLOCK not in system.caches[0].blocks
    system.check_invariants()


def test_snooping_recovery_restores_exact_state():
    system = SnoopingSystem(num_caches=3, requests_per_checkpoint=4)
    # Build some state.
    for i in range(12):
        cache = system.caches[i % 3]
        drive(system, lambda done, c=cache, a=((i % 4) << 6), v=i:
              c.store(a, v, done))
    # Snapshot, then mutate further.  The next request opens interval
    # `rpcn`; checkpoint `rpcn` is therefore exactly the snapshot state.
    rpcn = interval_of(system.bus.requests_observed, system.k)
    reference = {
        addr: system.architected_value(addr) for addr in
        [(i << 6) for i in range(4)]
    }
    for i in range(12, 24):
        cache = system.caches[i % 3]
        drive(system, lambda done, c=cache, a=((i % 4) << 6), v=1000 + i:
              c.store(a, v, done))
    mutated = {a: system.architected_value(a) for a in reference}
    assert mutated != reference
    system.validate_to(rpcn)
    # Recover: every block returns to its checkpointed value.
    system.recover_to(rpcn)
    recovered = {a: system.architected_value(a) for a in reference}
    assert recovered == reference
    system.check_invariants()


def test_validation_refuses_to_pass_open_transaction():
    system = SnoopingSystem(num_caches=2, requests_per_checkpoint=2)
    # Open a request whose data response never arrives (drain the bus
    # right after broadcast — models a lost response).
    system.caches[0].load(BLOCK, lambda v: None)
    system.bus.drain()
    assert system.caches[0].min_open_interval() == 1
    # Push a few more requests through so the interval advances.
    for i in range(1, 7):
        drive(system, lambda done, a=(i << 6): system.caches[1].load(a, done))
    assert system.current_interval() > 1
    with pytest.raises(Exception):
        system.validate_to(system.current_interval())


def test_bus_drain_discards_in_flight_data():
    system = SnoopingSystem(num_caches=2)
    got = []
    system.caches[0].load(BLOCK, got.append)
    system.bus.drain()
    system.sim.run(limit=system.sim.now + 50_000)
    assert not got  # the response died with the drain (recovery discards it)


@pytest.mark.parametrize("protocol", ["mesi", "moesi"])
def test_recovery_restores_silently_upgraded_block_as_exclusive(protocol):
    """A silent E->M upgrade is a store like any other: the CLB records
    the block as it was before the store, E, so recovering to the
    checkpoint before the upgrade gives back the E block, not M."""
    system = SnoopingSystem(num_caches=2, requests_per_checkpoint=2,
                            protocol=protocol)
    cache = system.caches[0]
    drive(system, lambda done: cache.load(BLOCK, done))
    # Two more requests open interval 2; validate up to it.
    for i in (1, 2):
        drive(system, lambda done, a=BLOCK + (i << 12):
              system.caches[1].load(a, done))
    rpcn = cache.ccn
    system.validate_to(rpcn)
    snapshot = cache.owned_state()
    assert snapshot == {BLOCK: (CacheState.EXCLUSIVE, 0)}
    drive(system, lambda done: cache.store(BLOCK, 99, done))
    assert cache.owned_state() == {BLOCK: (CacheState.MODIFIED, 99)}
    assert cache.c_silent_upgrade.value == 1
    assert [(e.addr, e.payload, e.tag) for e in cache.clb.unroll_from(rpcn)] \
        == [(BLOCK, (CacheState.EXCLUSIVE, 0, None), rpcn)]
    system.recover_to(rpcn)
    assert cache.owned_state() == snapshot
    system.check_invariants()
