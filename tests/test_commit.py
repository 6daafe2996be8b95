"""Tests for output/input commit at the sphere-of-recovery boundary."""

import pytest

from repro.core.commit import InputLog, OutputCommitBuffer
from tests.gen_mode_golden import (IO_MATRIX, IO_PERIODS, golden, io_cell_id,
                                   io_record)

IO_SHAPES, IO_SEEDS, IO_SCENARIOS = IO_MATRIX


# ---------------------------------------------------------------------------
# Output commit
# ---------------------------------------------------------------------------
def test_outputs_held_until_validated():
    buf = OutputCommitBuffer(0)
    buf.emit(3, "write-A")
    buf.emit(4, "write-B")
    assert buf.released == []
    buf.on_rpcn(4)  # validates intervals < 4
    assert buf.released == ["write-A"]
    buf.on_rpcn(5)
    assert buf.released == ["write-A", "write-B"]
    assert buf.pending_count == 0


def test_outputs_from_rolled_back_execution_are_discarded():
    buf = OutputCommitBuffer(0)
    buf.emit(3, "safe")
    buf.emit(5, "speculative")
    dropped = buf.discard_from(4)  # recovery to checkpoint 4
    assert dropped == 1
    buf.on_rpcn(6)
    assert buf.released == ["safe"]
    assert buf.discarded == 1


def test_release_callback_fires_in_order():
    seen = []
    buf = OutputCommitBuffer(1, on_release=seen.append)
    for interval, payload in [(2, "a"), (2, "b"), (3, "c")]:
        buf.emit(interval, payload)
    buf.on_rpcn(4)
    assert seen == ["a", "b", "c"]


def test_no_double_release():
    buf = OutputCommitBuffer(0)
    buf.emit(2, "x")
    buf.on_rpcn(3)
    buf.on_rpcn(5)
    assert buf.released == ["x"]


# ---------------------------------------------------------------------------
# Input commit
# ---------------------------------------------------------------------------
def test_input_log_replays_after_rewind():
    log = InputLog(0)
    produced = []

    def produce():
        produced.append(len(produced))
        return produced[-1] * 100

    first = [log.consume(k, produce) for k in (1, 2, 3)]
    # Recovery rewinds the consumer; the same keys must replay identically
    # without touching the external world again.
    replay = [log.consume(k, produce) for k in (1, 2, 3)]
    assert first == replay
    assert len(produced) == 3
    assert log.replays == 3
    assert log.first_reads == 3


def test_input_log_prune():
    log = InputLog(0)
    for k in range(10):
        log.consume(k, lambda k=k: k)
    log.prune_below(7)
    assert len(log) == 3


# ---------------------------------------------------------------------------
# Whole-machine I/O commit runs, pinned
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("periods", IO_PERIODS, ids=lambda p: f"{p[0]}-{p[1]}")
@pytest.mark.parametrize("seed", IO_SEEDS)
@pytest.mark.parametrize("shape", IO_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("scenario", IO_SCENARIOS)
def test_io_commit_runs_match_golden(shape, seed, scenario, periods):
    """Every retirement that crosses an output or input period boundary
    emits an output or consumes a logged input; recovery discards
    unvalidated outputs and replays inputs from the log.  Each cell
    replays a record in ``tests/data/mode_golden.json`` captured from the
    per-op burst loop that I/O runs used before the inlined loop took
    them over."""
    cell = io_cell_id(shape, seed, scenario, periods)
    record = io_record(shape, seed, scenario, periods)
    assert record == golden("io")[cell], f"{cell}: run diverged from its record"
    assert record["completed"] and not record["crashed"]
    if scenario == "transient":
        assert record["recoveries"] > 0, "transient cell caused no recovery"
        if periods[1]:
            assert sum(record["input_replays"]) > 0, "no input was replayed"
