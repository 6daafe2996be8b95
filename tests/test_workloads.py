"""Tests for the synthetic workload generators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import (
    WORKLOAD_NAMES,
    RandomTester,
    by_name,
    mix64,
    workload_character,
)
from repro.workloads.base import SyntheticWorkload, WorkloadSpec


def test_all_presets_constructible():
    for name in WORKLOAD_NAMES:
        wl = by_name(name, num_cpus=16, scale=16)
        gap, is_store, addr = wl.op(0, 0)
        assert gap >= 0
        assert addr % 64 == 0


def test_unknown_preset_raises():
    with pytest.raises(ValueError, match="unknown workload"):
        by_name("tpch")


def test_generation_is_pure_and_deterministic():
    wl = by_name("oltp", num_cpus=4, scale=32, seed=9)
    stream1 = [wl.op(2, i) for i in range(500)]
    stream2 = [wl.op(2, i) for i in range(500)]
    assert stream1 == stream2
    # A fresh generator with the same seed produces the same stream: this
    # is what makes post-recovery re-execution replay exactly.
    wl2 = by_name("oltp", num_cpus=4, scale=32, seed=9)
    assert [wl2.op(2, i) for i in range(500)] == stream1


def test_different_seeds_differ():
    a = by_name("apache", num_cpus=4, scale=32, seed=1)
    b = by_name("apache", num_cpus=4, scale=32, seed=2)
    assert [a.op(0, i) for i in range(50)] != [b.op(0, i) for i in range(50)]


def test_different_cpus_have_different_private_streams():
    wl = by_name("jbb", num_cpus=4, scale=32)
    a = [wl.op(0, i).addr for i in range(200)]
    b = [wl.op(1, i).addr for i in range(200)]
    assert a != b


def test_private_regions_do_not_overlap():
    wl = by_name("slashcode", num_cpus=4, scale=32)
    shared_limit = wl._priv_base << 6
    per_cpu = {c: set() for c in range(4)}
    for c in range(4):
        for i in range(2000):
            op = wl.op(c, i)
            if op.addr >= shared_limit:
                per_cpu[c].add(op.addr)
    for a in range(4):
        for b in range(a + 1, 4):
            assert not (per_cpu[a] & per_cpu[b])


def test_store_fraction_near_spec():
    wl = by_name("apache", num_cpus=2, scale=32)
    n = 20_000
    stores = sum(1 for i in range(n) if wl.op(0, i).is_store)
    # apache mixes 18% private stores with read-mostly shared accesses.
    assert 0.08 < stores / n < 0.30


def test_mean_gap_near_spec():
    wl = by_name("oltp", num_cpus=2, scale=32)
    n = 20_000
    gaps = [wl.op(1, i).gap for i in range(n)]
    assert abs(sum(gaps) / n - wl.spec.mean_gap) < 0.5


def test_migratory_blocks_are_contended_across_cpus():
    wl = by_name("oltp", num_cpus=8, scale=16)
    mig_lo = wl._mig_base << 6
    mig_hi = wl._priv_base << 6
    touched_by = {}
    for c in range(8):
        for i in range(20_000):
            op = wl.op(c, i)
            if mig_lo <= op.addr < mig_hi:
                touched_by.setdefault(op.addr, set()).add(c)
    assert touched_by, "no migratory traffic generated"
    contended = [a for a, cpus in touched_by.items() if len(cpus) >= 4]
    assert len(contended) >= len(touched_by) // 2


def test_jbb_allocation_streams_touch_many_distinct_blocks():
    jbb = by_name("jbb", num_cpus=2, scale=16)
    apache = by_name("apache", num_cpus=2, scale=16)

    def distinct_stored(wl, n=30_000):
        return len({wl.op(0, i).addr for i in range(n) if wl.op(0, i).is_store})

    assert distinct_stored(jbb) > 2 * distinct_stored(apache)


def test_barnes_phases_alternate():
    wl = by_name("barnes", num_cpus=4, scale=16)
    phase_len = wl.spec.phase_len
    # Update phases confine accesses to the CPU's own rw partition.
    part = max(1, wl.spec.rw_shared_blocks // 4)
    lo = (wl._rw_base + 2 * part) << 6
    hi = (wl._rw_base + 3 * part) << 6
    update_addrs = [wl.op(2, i).addr for i in range(phase_len, 2 * phase_len)]
    assert all(lo <= a < hi for a in update_addrs)
    read_addrs = [wl.op(2, i).addr for i in range(0, phase_len)]
    assert any(not (lo <= a < hi) for a in read_addrs)


def test_scaling_preserves_mix_but_shrinks_footprint():
    big = by_name("oltp", num_cpus=2, scale=1)
    small = by_name("oltp", num_cpus=2, scale=16)
    assert small.total_blocks < big.total_blocks
    n = 10_000
    sb = sum(1 for i in range(n) if big.op(0, i).is_store) / n
    ss = sum(1 for i in range(n) if small.op(0, i).is_store) / n
    assert abs(sb - ss) < 0.04


def test_character_stats_shape():
    wl = by_name("apache", num_cpus=2, scale=16)
    stats = workload_character(wl, cpus=2, ops_per_cpu=30_000,
                               window_instructions=30_000)
    assert 200 < stats["memops_per_1000"] < 500
    assert 20 < stats["stores_per_1000"] < 120
    assert 0 < stats["shared_frac_of_memops"] < 0.5
    assert stats["distinct_stored_blocks_per_window"] > 0


def test_character_walks_the_executed_chain():
    """The characterised ops are the ones a core retires: their
    instruction count is the chain position after ``ops_per_cpu`` ops."""
    for name in ("barnes", "jbb"):
        wl = by_name(name, num_cpus=2, scale=16)
        position = 0
        for _ in range(3_000):
            position += wl.op(0, position).gap + 1
        stats = workload_character(wl, cpus=1, ops_per_cpu=3_000)
        assert stats["instructions"] == position


def test_random_tester_false_sharing():
    rt = RandomTester(num_cpus=4, seed=1, blocks=8)
    addrs = {rt.op(c, i).addr for c in range(4) for i in range(500)}
    assert len(addrs) == 8  # everyone hits the same tiny set


def test_random_tester_validates_blocks():
    with pytest.raises(ValueError):
        RandomTester(blocks=0)


def test_mix64_avalanche():
    # Neighbouring inputs should produce wildly different outputs.
    diffs = [bin(mix64(i) ^ mix64(i + 1)).count("1") for i in range(100)]
    assert min(diffs) > 10
    assert 20 < sum(diffs) / len(diffs) < 44


@settings(max_examples=50, deadline=None)
@given(cpu=st.integers(0, 15), index=st.integers(0, 10**9))
def test_ops_always_well_formed(cpu, index):
    wl = by_name("slashcode", num_cpus=16, scale=16)
    gap, is_store, addr = wl.op(cpu, index)
    assert 0 <= gap <= 2 * wl.spec.mean_gap
    assert isinstance(is_store, bool)
    assert addr % 64 == 0
    assert 0 <= (addr >> 6) < wl.total_blocks
