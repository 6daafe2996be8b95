"""Validation scheduling: pinned runs, and detection latency gates sign-off.

Validation is event-driven: sign-off triggers plus a per-node resync
timer (``validation_resync_interval``).  Each ``test_modes_bit_identical``
cell replays a record in ``tests/data/mode_golden.json`` captured at the
last commit that still had the polled validation loop, where the polled
and event-driven schedulers produced it; the event-driven path must keep
reproducing it across seeds, shapes, fault scenarios and nonzero
detection latency.  A nonzero ``detection_latency`` holds each
checkpoint's sign-off until its detection window closes (the validation
agent's detection timer), so the recovery point can only lag a clean
run's.
"""

import pytest

from tests.gen_mode_golden import (VALIDATION_MATRIX, cell_id, golden,
                                   validation_record, validation_run)

SHAPES, SEEDS, SCENARIOS = VALIDATION_MATRIX


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_modes_bit_identical(shape, seed, scenario):
    cell = cell_id(shape, seed, scenario)
    record = validation_record(shape, seed, scenario)
    assert record == golden("validation")[cell], (
        f"{cell}: run diverged from the record both validation schedulers "
        f"produced")
    if scenario == "transient":
        # The scenario must actually exercise recovery to mean anything.
        assert record["recoveries"] > 0, "transient cell caused no recovery"


def _final_rpcn(shape, detection: bool) -> int:
    machine, result = validation_run(shape, 1,
                                     "detection" if detection else "clean")
    assert result.completed and not result.crashed
    return machine.controllers.rpcn


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_detection_latency_still_delays_validation(shape):
    assert _final_rpcn(shape, detection=True) < _final_rpcn(shape,
                                                            detection=False)
