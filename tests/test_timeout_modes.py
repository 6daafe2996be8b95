"""Request timeouts: pinned runs, and home timeouts inert on clean runs.

Requestor and home timeouts share the deadline-table machinery
(:mod:`repro.sim.deadlines`): one re-arming sweep event per controller
checks every armed deadline at exactly ``issue + request_timeout``.
Each ``test_modes_bit_identical`` cell replays a record in
``tests/data/mode_golden.json`` captured at the last commit that still
had the event-per-request timeout path, where both schedulers produced
it; the deadline table must keep reproducing it — including the
transient cells, where timeouts fire and trigger recovery.
(``tests/data/protocol_golden.json`` pins further runs in which
requestor and home timeouts fire.)
"""

import pytest

from repro.config import SystemConfig
from repro.system.machine import Machine
from repro.workloads import apache
from tests.gen_mode_golden import (TIMEOUT_MATRIX, cell_id, first_fault,
                                   golden, timeout_record)

SHAPES, SEEDS, SCENARIOS = TIMEOUT_MATRIX


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_modes_bit_identical(shape, seed, scenario):
    cell = cell_id(shape, seed, scenario)
    record = timeout_record(shape, seed, scenario)
    assert record == golden("timeouts")["cells"][cell], (
        f"{cell}: run diverged from the record both timeout schedulers "
        f"produced")
    if scenario == "transient":
        # The scenario must exercise the machinery to mean anything: a
        # timeout fired (deadline sweep -> fault) and recovery happened.
        assert record["cache_timeouts"] > 0, "transient cell fired no timeout"
        assert record["recoveries"] > 0, "transient cell caused no recovery"


def test_timeouts_fire_at_identical_cycles():
    """The first detection lands on the pinned cycle (deadline semantics,
    not just end-of-run equality)."""
    assert first_fault() == golden("timeouts")["first_fault"]


def test_home_timeout_optional_and_inert_when_clean():
    """``home_request_timeout`` arms home-side deadlines through the same
    table machinery; on a clean run it must never fire and must not
    perturb the run's results."""
    results = {}
    for bound in (None, 3_000):
        config = SystemConfig.tiny(home_request_timeout=bound)
        machine = Machine(config, apache(num_cpus=4, scale=64, seed=3), seed=3)
        result = machine.run(2_000, max_cycles=5_000_000)
        results[bound] = (
            result.cycles, result.committed_instructions,
            result.recoveries, result.crashed,
            machine.stats.counter("net.messages_sent").value,
        )
        assert machine.stats.sum_counters(".home.timeouts") == 0
    assert results[None] == results[3_000]
