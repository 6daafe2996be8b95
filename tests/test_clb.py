"""Unit and property tests for the Checkpoint Log Buffer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clb import CheckpointLogBuffer, ClbFullError, LogEntry, needs_log


def test_append_and_occupancy():
    clb = CheckpointLogBuffer(4)
    clb.append(1, 0x40, ("M", 1, None))
    clb.append(1, 0x80, ("M", 2, None))
    clb.append(2, 0x40, ("M", 3, 2))
    assert clb.occupancy == 3
    assert clb.free_entries == 1
    assert not clb.is_full()
    assert clb.peak_occupancy == 3


def test_full_clb_raises():
    clb = CheckpointLogBuffer(1)
    clb.append(1, 0x40, None)
    assert clb.is_full()
    with pytest.raises(ClbFullError):
        clb.append(1, 0x80, None)


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        CheckpointLogBuffer(0)


def test_unroll_order_is_newest_first():
    clb = CheckpointLogBuffer(16)
    clb.append(1, 0xA, "a1")
    clb.append(1, 0xB, "b1")
    clb.append(2, 0xA, "a2")
    clb.append(3, 0xC, "c3")
    order = [(e.addr, e.payload) for e in clb.unroll_from(1)]
    assert order == [(0xC, "c3"), (0xA, "a2"), (0xB, "b1"), (0xA, "a1")]


def test_unroll_from_skips_validated_segments():
    clb = CheckpointLogBuffer(16)
    clb.append(1, 0xA, "old")
    clb.append(5, 0xA, "new")
    tags = [e.tag for e in clb.unroll_from(3)]
    assert tags == [5]


def test_free_below_deallocates_validated_checkpoints():
    # Matches the paper's Fig. 4: "Deallocate CN2" drops the CN1 entry.
    clb = CheckpointLogBuffer(16)
    clb.append(1, 0xA, "A:5")
    clb.append(2, 0xA, "A:15")
    freed = clb.free_below(2)
    assert freed == 1
    assert [e.payload for e in clb.unroll_from(1)] == ["A:15"]
    assert clb.occupancy == 1


def test_clear_from_after_recovery():
    clb = CheckpointLogBuffer(16)
    clb.append(1, 0xA, "keep")
    clb.append(2, 0xB, "drop")
    clb.append(3, 0xC, "drop")
    clb.append(3, 0xD, "drop")
    expected = list(clb.unroll_from(2))
    dropped = clb.rollback(2)
    assert dropped == expected
    assert [e.addr for e in dropped] == [0xD, 0xC, 0xB]
    assert clb.occupancy == 1
    assert [e.payload for e in clb.unroll_from(1)] == ["keep"]
    assert clb.segment_sizes() == {1: 1}


def test_retag_moves_entry_to_later_interval():
    clb = CheckpointLogBuffer(16)
    entry = clb.append(2, 0xA, "provisional")
    clb.retag(entry, 4)
    assert entry.tag == 4
    assert [e.tag for e in clb.unroll_from(3)] == [4]
    # Recovery to 3 or 4 must now unroll it; to 5 must not.
    assert [e.tag for e in clb.unroll_from(5)] == []


def test_retag_backward_rejected():
    clb = CheckpointLogBuffer(16)
    entry = clb.append(5, 0xA, None)
    with pytest.raises(ValueError):
        clb.retag(entry, 3)


def test_retag_same_tag_is_noop():
    clb = CheckpointLogBuffer(16)
    entry = clb.append(5, 0xA, None)
    clb.retag(entry, 5)
    assert entry.tag == 5
    assert clb.occupancy == 1


def test_entries_created_per_interval_survives_free():
    clb = CheckpointLogBuffer(16)
    clb.append(1, 0xA, None)
    clb.append(1, 0xB, None)
    clb.free_below(5)
    assert clb.entries_created_in(1) == 2
    assert clb.occupancy == 0
    assert clb.total_appends == 2


def test_segment_sizes():
    clb = CheckpointLogBuffer(16)
    clb.append(1, 0xA, None)
    clb.append(2, 0xB, None)
    clb.append(2, 0xC, None)
    assert clb.segment_sizes() == {1: 1, 2: 2}


# ---------------------------------------------------------------------------
# Property: unrolling a log restores the exact original state
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),      # block index
            st.integers(min_value=0, max_value=2**32),  # new value
        ),
        min_size=1,
        max_size=60,
    ),
    edges=st.sets(st.integers(min_value=1, max_value=59)),
    recovery_point=st.integers(min_value=1, max_value=8),
)
def test_unroll_restores_state_at_any_checkpoint(ops, edges, recovery_point):
    """Apply the paper's logging rule (``needs_log``) on a toy memory,
    then roll back to an arbitrary checkpoint and compare against the
    reference snapshot."""
    clb = CheckpointLogBuffer(10_000)
    memory = {b: 0 for b in range(8)}
    cn = {b: None for b in range(8)}
    ccn = 1
    snapshots = {1: dict(memory)}
    for i, (block, value) in enumerate(ops):
        if i in edges:
            ccn += 1
            snapshots[ccn] = dict(memory)
        if needs_log(cn[block], ccn):
            clb.append(ccn, block, memory[block])
            cn[block] = ccn + 1
        memory[block] = value
    r = min(recovery_point, ccn)
    for entry in clb.rollback(r):
        memory[entry.addr] = entry.payload
    assert memory == snapshots[r]
    assert all(tag < r for tag in clb.segment_sizes())
