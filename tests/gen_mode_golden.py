"""Regenerate the run records the single-path mode suites replay.

Four mechanisms once had two implementations each — the kernel's event
queue (heap vs calendar-queue core), request timeouts (deadline table vs
one kernel event per request), validation scheduling (event-driven vs
polled) and the core's burst loop (the inlined loop vs a per-op loop
that I/O-commit runs used) — and their equivalence suites ran every cell
under both and compared the runs.  The records in
``tests/data/mode_golden.json`` were written by this script at the last
commit that still carried both implementations.  For the first three,
the flags were set to the implementation that remains; each record was
compared there against the runs of the other setting and against all
four alternatives at once (the reference burst loop included), and they
matched in every field (the dispatch count only across kernel cores: the
per-request timeout events and the poll loop were extra dispatches by
design).  The ``io`` records were taken from the per-op loop, the only
loop that ran I/O hooks then.  The suites now replay the remaining
implementation against them:

* ``kernel``: the event-calendar suite's machine sweep
  (RunResult, a digest of every counter, final RPCN, dispatch count and
  peak queue depth);
* ``timeouts``: ``tests/test_timeout_modes.py`` (cells and the first
  fault-log line);
* ``validation``: ``tests/test_validation_modes.py``;
* ``io``: ``tests/test_commit.py``'s output/input-commit runs
  (RunResult, counter digest, dispatch count, peak queue depth, every
  node's released outputs, pending outputs, input-log first reads and
  replays, and the final architected state).

The ``express`` section pins the network's express hops, which skip the
per-switch dispatches of an idle path segment.  Hop-by-hop scheduling
was once a config flag, ``SystemConfig.express_hops=False``; it is now
one unmatched ``Network.express_hold()`` before the first event.  The
section was written at the last commit that still had the flag.  There
each record was taken from the held run, the default (express) run had
to equal it in every field but the dispatch counts, and a third run with
the flag off had to equal it in every field, its dispatch count and peak
queue depth included; all 25 cells matched.  ``tests/test_express_hops.py``
replays the default run against each record (the fields, a digest of
every counter but the three ``net.express_*`` ones, and a dispatch count
no higher than the hop-by-hop run's) and a few held runs against the
hop-by-hop counts.

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
#: The I/O-commit sweep adds (output, input) period pairs to each cell.
IO_MATRIX = ([(2, 2), (2, 3)], [1, 2], ["clean", "transient"])
IO_PERIODS = [(50, 0), (0, 150), (37, 41)]
#: The express-hop suite: the kernel shapes plus 8x8, and one extra cell
#: whose drop windows open while express segments are in the air.
EXPRESS_MATRIX = ([(2, 2), (4, 4), (4, 8), (8, 8)], [1, 2],
                  ["clean", "transient", "switch_kill"])
MID_SEGMENT = ((4, 8), 5, "mid_segment")
#: Express telemetry, the one thing express and hop-by-hop runs differ in.
EXPRESS_COUNTERS = ("net.express_flights", "net.express_hops",
                    "net.express_interrupts")


def cell_id(shape, seed: int, scenario: str) -> str:
    return f"{scenario}-{shape[0]}x{shape[1]}-{seed}"


def io_cell_id(shape, seed: int, scenario: str, periods) -> str:
    return f"{cell_id(shape, seed, scenario)}-{periods[0]}-{periods[1]}"


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


def _sha256(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()).hexdigest()


def _machine(shape, seed: int, scenario: str, **io_periods) -> Machine:
    """The kernel, I/O and express sweeps' machine: apache on odd seeds,
    jbb on even ones."""
    config = _config(shape)
    workload = (apache if seed % 2 else jbb)(
        num_cpus=config.num_processors, scale=64, seed=seed)
    machine = Machine(config, workload, seed=seed, **io_periods)
    if scenario == "transient":
        machine.inject_transient_faults(period=2_500, first_at=1_200)
    elif scenario == "switch_kill":
        machine.inject_switch_kill(at_cycle=2_000)
    elif scenario == "mid_segment":
        machine.inject_transient_faults(period=1_500, first_at=900)
    return machine


def kernel_record(shape, seed: int, scenario: str) -> dict:
    machine = _machine(shape, seed, scenario)
    result = machine.run(1_500, max_cycles=5_000_000)
    return {
        **_result_fields(result),
        "counters_sha256": _sha256(machine.stats.counters_matching("")),
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


def io_record(shape, seed: int, scenario: str, periods) -> dict:
    machine = _machine(shape, seed, scenario, io_output_period=periods[0],
                       io_input_period=periods[1])
    result = machine.run(2_000, max_cycles=5_000_000)
    nodes = machine.nodes
    return {
        **_result_fields(result),
        "counters_sha256": _sha256(machine.stats.counters_matching("")),
        "events_dispatched": machine.sim.events_dispatched,
        "peak_pending": machine.sim.peak_pending,
        "released_sha256": _sha256([n.commit.released for n in nodes]),
        "pending_outputs": [n.commit.pending_count for n in nodes],
        "input_first_reads": [n.input_log.first_reads for n in nodes],
        "input_replays": [n.input_log.replays for n in nodes],
        "architected_sha256": _sha256(
            [n.core.architected_state() for n in nodes]),
    }


def express_run(shape, seed: int, scenario: str, *, hold: bool):
    """One express-suite run; ``hold`` takes one unmatched
    :meth:`~repro.interconnect.network.Network.express_hold` before the
    first event, which schedules every hop as its own dispatch."""
    machine = _machine(shape, seed, scenario)
    if hold:
        machine.network.express_hold()
    if scenario == "mid_segment":
        instructions = 800
    elif shape[0] * shape[1] >= 32:
        instructions = 600   # big tori get a shorter run
    else:
        instructions = 2_000
    return machine, machine.run(instructions, max_cycles=5_000_000)


def express_fields(machine: Machine, result) -> dict:
    """What an express run must share with its hop-by-hop record."""
    stats = machine.stats
    counters = stats.counters_matching("")
    for name in EXPRESS_COUNTERS:
        del counters[name]
    return {
        **_result_fields(result),
        **_traffic_fields(machine),
        "messages_lost": stats.counter("net.messages_lost").value,
        "contention_cycles": stats.counter("net.contention_cycles").value,
        "buffer_stalls": stats.counter("net.buffer_stalls").value,
        "cache_loads": stats.sum_counters(".cache.loads"),
        "cache_stores": stats.sum_counters(".cache.stores"),
        "cache_misses": stats.sum_counters(".cache.misses"),
        "rpcn": machine.controllers.rpcn,
        "counters_sha256": _sha256(counters),
    }


def express_record(shape, seed: int, scenario: str) -> dict:
    """The held (hop-by-hop) run's fields and dispatch counts, plus the
    default run's; the two runs must agree on every field."""
    held, held_result = express_run(shape, seed, scenario, hold=True)
    machine, result = express_run(shape, seed, scenario, hold=False)
    record = express_fields(held, held_result)
    cell = cell_id(shape, seed, scenario)
    assert express_fields(machine, result) == record, (
        f"{cell}: express run diverged from hop-by-hop")
    assert held.stats.counter("net.express_flights").value == 0, (
        f"{cell}: a flight went express under the hold")
    return {
        **record,
        "hop_by_hop_events": held.sim.events_dispatched,
        "hop_by_hop_peak_pending": held.sim.peak_pending,
        "express_events": machine.sim.events_dispatched,
        "express_flights": machine.stats.counter(
            "net.express_flights").value,
    }


def _cells(matrix, record) -> dict:
    shapes, seeds, scenarios = matrix
    return {cell_id(shape, seed, scenario): record(shape, seed, scenario)
            for scenario in scenarios for shape in shapes for seed in seeds}


def build() -> dict:
    """Every section in file order: the first four as sorted once, then
    each later one appended, so a new section never moves a record."""
    return {
        "io": {io_cell_id(shape, seed, scenario, periods):
               io_record(shape, seed, scenario, periods)
               for scenario in IO_MATRIX[2] for shape in IO_MATRIX[0]
               for seed in IO_MATRIX[1] for periods in IO_PERIODS},
        "kernel": _cells(KERNEL_MATRIX, kernel_record),
        "timeouts": {
            "cells": _cells(TIMEOUT_MATRIX, timeout_record),
            "first_fault": first_fault(),
        },
        "validation": _cells(VALIDATION_MATRIX, validation_record),
        "express": {
            **_cells(EXPRESS_MATRIX, express_record),
            cell_id(*MID_SEGMENT): express_record(*MID_SEGMENT),
        },
    }


def _sorted(value):
    """``value`` with every dict's keys sorted, recursively."""
    if isinstance(value, dict):
        return {key: _sorted(value[key]) for key in sorted(value)}
    return value


def main() -> None:
    sections = build()
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({name: _sorted(section)
                   for name, section in sections.items()}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
