"""Regenerate the run records the single-path mode suites replay.

Three mechanisms once had two flag-selected implementations each — the
kernel's event queue (heap vs calendar-queue core), request timeouts
(deadline table vs one kernel event per request) and validation
scheduling (event-driven vs polled) — and their equivalence suites ran
every cell under both settings and compared the runs.  The records in
``tests/data/mode_golden.json`` were written by this script at the last
commit that still carried both implementations, with the flags set to
the implementation that remains; each record was compared there against
the runs of the other setting and against all four alternatives at once
(the reference burst loop included), and they matched in every field
(the dispatch count only across kernel cores: the per-request timeout
events and the poll loop were extra dispatches by design).  The suites
now replay the remaining implementation against them:

* ``kernel``: the event-calendar suite's machine sweep
  (RunResult, a digest of every counter, final RPCN, dispatch count and
  peak queue depth);
* ``timeouts``: ``tests/test_timeout_modes.py`` (cells and the first
  fault-log line);
* ``validation``: ``tests/test_validation_modes.py``.

Re-run only to *extend* a matrix, never to "refresh" a record after a
divergence — that would turn the oracle into a mirror.

    PYTHONPATH=src python tests/gen_mode_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.config import SystemConfig
from repro.system.machine import Machine
from repro.workloads import apache, jbb

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "data", "mode_golden.json")

#: (shapes, seeds, scenarios) swept by each suite.
KERNEL_MATRIX = ([(2, 2), (4, 4), (4, 8)], [1, 2],
                 ["clean", "transient", "switch_kill"])
TIMEOUT_MATRIX = ([(2, 2), (2, 3)], [1, 2], ["clean", "transient"])
VALIDATION_MATRIX = ([(2, 2), (2, 3)], [1, 2],
                     ["clean", "transient", "detection"])


def cell_id(shape, seed: int, scenario: str) -> str:
    return f"{scenario}-{shape[0]}x{shape[1]}-{seed}"


def golden(section: str) -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)[section]


def _config(shape) -> SystemConfig:
    if shape == (2, 2):
        return SystemConfig.tiny()
    return SystemConfig.from_shape(*shape, preset="tiny")


def _result_fields(result) -> dict:
    return {
        "cycles": result.cycles,
        "committed_instructions": result.committed_instructions,
        "completed": result.completed,
        "crashed": result.crashed,
        "crash_reason": result.crash_reason,
        "recoveries": result.recoveries,
        "lost_instructions": result.lost_instructions,
        "reexecuted_instructions": result.reexecuted_instructions,
    }


def kernel_record(shape, seed: int, scenario: str) -> dict:
    config = _config(shape)
    workload = (apache if seed % 2 else jbb)(
        num_cpus=config.num_processors, scale=64, seed=seed)
    machine = Machine(config, workload, seed=seed)
    if scenario == "transient":
        machine.inject_transient_faults(period=2_500, first_at=1_200)
    elif scenario == "switch_kill":
        machine.inject_switch_kill(at_cycle=2_000)
    result = machine.run(1_500, max_cycles=5_000_000)
    counters = json.dumps(machine.stats.counters_matching(""), sort_keys=True)
    return {
        **_result_fields(result),
        "counters_sha256": hashlib.sha256(counters.encode()).hexdigest(),
        "rpcn": machine.controllers.rpcn,
        "events_dispatched": machine.sim.events_dispatched,
        "peak_pending": machine.sim.peak_pending,
    }


def _traffic_fields(machine: Machine) -> dict:
    stats = machine.stats
    return {
        "messages_sent": stats.counter("net.messages_sent").value,
        "messages_delivered": stats.counter("net.messages_delivered").value,
        "bytes_sent": stats.counter("net.bytes_sent").value,
    }


def timeout_machine(shape, seed: int, scenario: str) -> Machine:
    config = _config(shape)
    workload = apache(num_cpus=config.num_processors, scale=64, seed=seed)
    machine = Machine(config, workload, seed=seed)
    if scenario == "transient":
        # Dropped messages orphan transactions; the *requestor timeout* is
        # the detector that turns them into recoveries.  Schedule chosen
        # so every (shape, seed) cell fires at least one.
        machine.inject_transient_faults(period=2_500, first_at=1_200)
    return machine


def timeout_record(shape, seed: int, scenario: str) -> dict:
    machine = timeout_machine(shape, seed, scenario)
    result = machine.run(2_000, max_cycles=5_000_000)
    return {
        **_result_fields(result),
        "target_instructions": result.target_instructions,
        **_traffic_fields(machine),
        "cache_timeouts": machine.stats.sum_counters(".cache.timeouts"),
        "cache_loads": machine.stats.sum_counters(".cache.loads"),
        "cache_stores": machine.stats.sum_counters(".cache.stores"),
        "rpcn": machine.controllers.rpcn,
        "events_dispatched": machine.sim.events_dispatched,
    }


def first_fault() -> str:
    """The first fault-log line of the 2x2 seed-1 transient cell."""
    machine = timeout_machine((2, 2), 1, "transient")
    machine.run(2_000, max_cycles=5_000_000)
    log = machine.recovery.stats.fault_log
    assert log, "no fault was ever reported"
    return log[0]


def validation_run(shape, seed: int, scenario: str):
    config = _config(shape)
    detection = 2 * config.checkpoint_interval if scenario == "detection" else 0
    workload = apache(num_cpus=config.num_processors, scale=64, seed=seed)
    machine = Machine(config, workload, seed=seed,
                      detection_latency=detection)
    if scenario == "transient":
        # Schedule chosen so every (shape, seed) cell sees >= 1 recovery.
        machine.inject_transient_faults(period=2_500, first_at=1_200)
    return machine, machine.run(2_000, max_cycles=5_000_000)


def validation_record(shape, seed: int, scenario: str) -> dict:
    machine, result = validation_run(shape, seed, scenario)
    return {
        **_result_fields(result),
        "target_instructions": result.target_instructions,
        **_traffic_fields(machine),
        "rpcn": machine.controllers.rpcn,
        "events_dispatched": machine.sim.events_dispatched,
    }


def _cells(matrix, record) -> dict:
    shapes, seeds, scenarios = matrix
    return {cell_id(shape, seed, scenario): record(shape, seed, scenario)
            for scenario in scenarios for shape in shapes for seed in seeds}


def build() -> dict:
    return {
        "kernel": _cells(KERNEL_MATRIX, kernel_record),
        "timeouts": {
            "cells": _cells(TIMEOUT_MATRIX, timeout_record),
            "first_fault": first_fault(),
        },
        "validation": _cells(VALIDATION_MATRIX, validation_record),
    }


def main() -> None:
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(build(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
