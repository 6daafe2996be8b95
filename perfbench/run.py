#!/usr/bin/env python3
"""Canonical end-to-end simulator benchmark with per-layer attribution.

Run from the repository root::

    python3 perfbench/run.py --workload apache-8x8 --seed 0 --seconds 25 --trace 0

Each invocation runs one workload (see ``workloads.py`` and ``NOTES.md``)
as real simulations through the public entry points
(``repro.experiments.runner.build_machine``, ``Machine.run`` and, for the
campaign, ``Runner.run``), repeating it for ``--seconds``.  Wall and
set-up times are medians, scaled by a fixed reference loop timed between
repetitions so that the host's momentary speed cancels out (see
:func:`repeat` and ``reference.py``).  Every run's simulated outputs are
checked against the values pinned in ``pins.json``; a mismatch counts the
run as failed.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced runs and reports the
per-layer split from ``layers.py`` plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is
imported from ``src/`` next to this directory; without it the benchmark
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Tuple

from reference import REFERENCE_S, reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Fewest timed repetitions per invocation, whatever ``--seconds`` says.
MIN_REPS = 3
#: Fewest set-up timings behind the ``setup_s`` median, and how many
#: set-up-only timings are taken before each repetition.
MIN_SETUPS = 31
SETUPS_PER_REP = 2

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_kips": "kinstr/s",
    "sim_cycles": "cycles",
    "peak_rss_mb": "MB",
}


class ProgramMissing(RuntimeError):
    pass


def load_program() -> None:
    """Put this checkout's ``src/`` first on the path and import it."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no simulator sources at {package}")
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != package:
        raise ProgramMissing(f"imported repro from {repro.__file__}, "
                             f"not from {package}")


class Tally:
    """Runs attempted and failed, with the first reasons for failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def add(self, what: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{what}: {'; '.join(problems)}")


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = perf_counter() + seconds

    def more(self, reps: int, minimum: int = MIN_REPS) -> bool:
        return reps < minimum or perf_counter() < self.end


def peak_rss_mb() -> float:
    """Peak resident memory of this process and its reaped children."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def median_of(rows: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-key median that is always one of the values (counts stay ints)."""
    return {key: statistics.median_low(row[key] for row in rows)
            for key in rows[0]}


# ----------------------------------------------------------------------
# Single-machine workloads
# ----------------------------------------------------------------------
def timed_run(spec):
    """Build and run one machine untraced: (setup_s, wall_s, machine, result)."""
    from repro.experiments.runner import build_machine

    started = perf_counter()
    machine = build_machine(spec)
    built = perf_counter()
    result = machine.run(spec.instructions, max_cycles=spec.max_cycles)
    return built - started, perf_counter() - built, machine, result


def build_seconds(spec) -> float:
    from repro.experiments.runner import build_machine

    started = perf_counter()
    build_machine(spec)
    return perf_counter() - started


def repeat(what: str, seconds: float, seeds: List[int],
           timed_rep: Callable[[int], Tuple[float, float, int, int]],
           timed_setup: Callable[[int], float]) -> Dict[str, float]:
    """Repeat the fixed work for ``seconds``; its end-to-end metrics.

    Repetition ``i`` simulates ``seeds[i % len(seeds)]``: a run cycles
    through every pinned input, so its medians barely depend on the seed
    it started from (the fault workload's work differs ~10% by seed).
    ``timed_rep(seed)`` does the work once and returns (setup_s, wall_s,
    simulated cycles, committed instructions); ``sim_cycles`` is the
    first seed's.  Set-up-only timings are spread between repetitions, so
    the set-up median covers the whole window rather than one moment.

    The reference loop runs between repetitions, and every timing is
    scaled by ``REFERENCE_S`` over the mean of the reference timings on
    either side of it (see ``reference.py``).  ``wall_s``, ``setup_s``
    and ``sim_kips`` are medians of scaled values; raw walls are printed.
    """
    walls: List[float] = []
    raw_walls: List[float] = []
    kips: List[float] = []
    setups: List[float] = []
    first_cycles = None
    scale = 1.0
    before = reference_seconds()
    deadline = Deadline(seconds)
    while deadline.more(len(walls)):
        seed = seeds[len(walls) % len(seeds)]
        rep_setups = []
        for _ in range(SETUPS_PER_REP):
            gc.collect()
            rep_setups.append(timed_setup(seed))
        gc.collect()
        setup, wall, cycles, committed = timed_rep(seed)
        after = reference_seconds()
        scale = REFERENCE_S * 2 / (before + after)
        before = after
        setups += [s * scale for s in rep_setups + [setup]]
        walls.append(wall * scale)
        raw_walls.append(wall)
        kips.append(committed / (wall * scale) / 1000.0)
        if first_cycles is None:
            first_cycles = cycles
    while len(setups) < MIN_SETUPS:
        gc.collect()
        setups.append(timed_setup(seeds[0]) * scale)
    wall = statistics.median(walls)
    setup = statistics.median(setups)
    print(f"# {what}: {len(walls)} runs, raw wall_s min {min(raw_walls):.4f} "
          f"median {statistics.median(raw_walls):.4f} max {max(raw_walls):.4f};"
          f" scaled wall_s median {wall:.4f}; {len(setups)} set-ups, "
          f"scaled setup_s median {setup:.5f}")
    return {
        "wall_s": wall,
        "setup_s": setup,
        "sim_kips": statistics.median(kips),
        "sim_cycles": float(first_cycles),
        "peak_rss_mb": peak_rss_mb(),
    }


def single_problems(W, spec, machine, result, pinned) -> List[str]:
    return (W.machine_problems(spec, machine, result)
            + W.output_problems(W.result_outputs(result), pinned))


def measure_single(W, name: str, sim_seed: int, seconds: float,
                   tally: Tally) -> Dict[str, float]:
    pins = W.load_pins()[name]
    seeds = W.rotation(sim_seed)
    specs = {seed: W.single_spec(name, seed) for seed in seeds}

    def timed_rep(seed: int):
        spec = specs[seed]
        setup, wall, machine, result = timed_run(spec)
        tally.add(f"{name} sim seed {seed}", single_problems(
            W, spec, machine, result, pins.get(str(seed))))
        return setup, wall, result.cycles, result.committed_instructions

    return repeat(f"{name} sim seeds {seeds}", seconds, seeds, timed_rep,
                  lambda seed: build_seconds(specs[seed]))


def trace_single(W, L, name: str, sim_seed: int, seconds: float,
                 tally: Tally) -> Dict[str, float]:
    from repro.experiments.runner import build_machine

    spec = W.single_spec(name, sim_seed)
    pinned = W.load_pins()[name].get(str(sim_seed))
    rows: List[Dict[str, float]] = []
    deadline = Deadline(seconds)
    while deadline.more(len(rows), minimum=1):
        gc.collect()
        _, untraced_wall, machine, plain = timed_run(spec)
        tally.add(f"{name} untraced", single_problems(W, spec, machine,
                                                      plain, pinned))
        del machine
        gc.collect()
        machine = build_machine(spec)
        trace, totals = L.LayerTrace(), L.MachineTotals()
        traced = trace.run(machine, spec)
        totals.add(machine, traced)
        tally.add(f"{name} traced", W.output_problems(
            W.result_outputs(traced), W.result_outputs(plain)))
        del machine
        rows.append(L.layer_metrics(trace, totals, untraced_wall))
    check_counts_repeat(L, name, rows, tally)
    metrics = median_of(rows)
    metrics.update({"experiments.cells": 0, "experiments.cell_s": 0.0,
                    "experiments.overhead_s": 0.0,
                    "experiments.pool_wall_s": 0.0, "experiments.retries": 0})
    print(f"# {name} sim seed {sim_seed}: {len(rows)} traced runs")
    return metrics


def check_counts_repeat(L, name: str, rows: List[Dict[str, float]],
                        tally: Tally) -> None:
    for row in rows[1:]:
        moved = [key for key in L.WORK_COUNTS if row[key] != rows[0][key]]
        tally.add(f"{name} work counts", [f"{key} changed between runs"
                                          for key in moved])


# ----------------------------------------------------------------------
# Campaign workload
# ----------------------------------------------------------------------
def fresh_dir(path: Path) -> None:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)


def campaign_setup(W, sweep, store_path: Path, backend: str):
    """Everything before the first cell: expand the sweep and create its
    store, manifest and journal.  Returns (specs, runner, journal)."""
    from repro.experiments.journal import AttemptJournal
    from repro.experiments.manifest import CampaignManifest
    from repro.experiments.runner import Runner
    from repro.experiments.store import ResultStore

    specs = sweep.expand()
    store = ResultStore(str(store_path))
    CampaignManifest.record(str(store_path), sweep, fabric={
        "backend": backend, "jobs": W.CAMPAIGN_JOBS, "retries": 0})
    journal = AttemptJournal.for_store(str(store_path))
    journal.ensure_dirs()
    runner = Runner(jobs=W.CAMPAIGN_JOBS, store=store, backend=backend,
                    retries=0, heartbeat_s=0)
    return specs, runner, journal


def campaign_setup_seconds(W, sweep, store_path: Path) -> float:
    fresh_dir(store_path.parent)
    started = perf_counter()
    campaign_setup(W, sweep, store_path, "filequeue")
    return perf_counter() - started


def run_campaign(W, sweep, store_path: Path, backend: str):
    """One sweep on a fresh store: (setup_s, wall_s, records, retries).

    Wall time runs from handing the cells to the runner to the merged
    store; ``retries`` counts re-claimed cells in the journal's event log.
    """
    fresh_dir(store_path.parent)
    gc.collect()
    started = perf_counter()
    specs, runner, journal = campaign_setup(W, sweep, store_path, backend)
    ready = perf_counter()
    records = runner.run(specs)
    wall = perf_counter() - ready
    retries = 0
    if os.path.exists(journal.events_path):
        with open(journal.events_path, encoding="utf-8") as fh:
            for line in fh:
                event = json.loads(line)
                if event["event"] == "claim" and event.get("attempt", 1) > 1:
                    retries += 1
    return ready - started, wall, records, retries


def tally_cells(W, records, pins, tally: Tally) -> None:
    """Count each campaign cell as one run, checked against its pin."""
    for record in records:
        if record.failed or record.crashed or not record.completed:
            problems = ["did not complete"]
        else:
            problems = W.output_problems(W.record_outputs(record),
                                         pins.get(record.spec_hash))
        tally.add(record.spec.label(), problems)


def measure_campaign(W, sim_seed: int, seconds: float, workdir: Path,
                     tally: Tally) -> Dict[str, float]:
    pins = W.load_pins()[W.CAMPAIGN]
    seeds = W.rotation(sim_seed)
    sweeps = {seed: W.campaign_sweep(seed) for seed in seeds}

    def timed_rep(seed: int):
        setup, wall, records, _ = run_campaign(
            W, sweeps[seed], workdir / "fq" / "store.jsonl", "filequeue")
        tally_cells(W, records, pins, tally)
        return (setup, wall, sum(r.cycles for r in records),
                sum(r.committed_instructions for r in records))

    return repeat(f"{W.CAMPAIGN} sim seeds {seeds}", seconds, seeds,
                  timed_rep, lambda seed: campaign_setup_seconds(
                      W, sweeps[seed], workdir / "setup" / "store.jsonl"))


def trace_campaign(W, L, sim_seed: int, seconds: float, workdir: Path,
                   tally: Tally) -> Dict[str, float]:
    """Fabric metrics from real sweeps; layer metrics from replaying the
    same cells in this process, once untraced and once traced."""
    from repro.experiments.runner import build_machine

    sweep = W.campaign_sweep(sim_seed)
    pins = W.load_pins()[W.CAMPAIGN]
    rows: List[Dict[str, float]] = []
    deadline = Deadline(seconds)
    while deadline.more(len(rows), minimum=1):
        _, wall, records, retries = run_campaign(
            W, sweep, workdir / "fq" / "store.jsonl", "filequeue")
        tally_cells(W, records, pins, tally)
        _, pool_wall, pool_records, _ = run_campaign(
            W, sweep, workdir / "pool" / "store.jsonl", "pool")
        tally_cells(W, pool_records, pins, tally)
        untraced_wall = 0.0
        for record in records:
            gc.collect()
            _, run_wall, machine, _ = timed_run(record.spec)
            untraced_wall += run_wall
            del machine
        trace, totals = L.LayerTrace(), L.MachineTotals()
        for record in records:
            gc.collect()
            machine = build_machine(record.spec)
            result = trace.run(machine, record.spec)
            totals.add(machine, result)
            untraced = {"cycles": record.cycles,
                        "committed": record.committed_instructions,
                        "recoveries": record.recoveries,
                        "lost": record.lost_instructions}
            tally.add(f"{record.spec.label()} traced", W.output_problems(
                W.result_outputs(result), untraced))
            del machine
        row = L.layer_metrics(trace, totals, untraced_wall)
        cell_s = sum(r.elapsed_s for r in records)
        row.update({
            "experiments.cells": len(records),
            "experiments.cell_s": cell_s,
            "experiments.overhead_s": wall - cell_s / W.CAMPAIGN_JOBS,
            "experiments.pool_wall_s": pool_wall,
            "experiments.retries": retries,
        })
        rows.append(row)
    check_counts_repeat(L, W.CAMPAIGN, rows, tally)
    print(f"# {W.CAMPAIGN} sim seed {sim_seed}: {len(rows)} traced sweeps")
    return median_of(rows)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def measure(workload: str, sim_seed: int, seconds: float, trace: bool,
            tally: Tally) -> Dict[str, float]:
    """Run one workload and return its metrics; runs are counted in
    ``tally``.  Importable by checks."""
    import layers as L
    import workloads as W

    workdir = WORK / f"{workload}-{os.getpid()}"
    try:
        if workload == W.CAMPAIGN:
            if trace:
                metrics = trace_campaign(W, L, sim_seed, seconds, workdir, tally)
            else:
                metrics = measure_campaign(W, sim_seed, seconds, workdir, tally)
        elif trace:
            metrics = trace_single(W, L, workload, sim_seed, seconds, tally)
        else:
            metrics = measure_single(W, workload, sim_seed, seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    return metrics


def units_for(trace: bool) -> Dict[str, str]:
    if trace:
        import layers as L
        return L.UNITS
    return END_TO_END_UNITS


def main(argv=None) -> int:
    import workloads as W

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="input seed; selects a pinned simulation seed")
    parser.add_argument("--sim-seed", type=int, choices=W.PINNED_SEEDS,
                        help="run this pinned simulation seed directly "
                             f"(held-out seed: {W.HOLDOUT_SEED})")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for this long (at least "
                             f"{MIN_REPS} repetitions)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot load the simulator: {exc}", file=sys.stderr)
        return 2
    sim_seed = args.sim_seed if args.sim_seed is not None \
        else W.sim_seed_for(args.seed)
    tally = Tally()
    units = units_for(bool(args.trace))
    try:
        metrics = measure(args.workload, sim_seed, args.seconds,
                          bool(args.trace), tally)
    except Exception:  # noqa: BLE001 - a crashing run is a failed run
        traceback.print_exc()
        tally.add(f"{args.workload} crashed", ["exception"])
        metrics = {}
    for problem in tally.problems:
        print(f"# FAILED {problem}")
    print(f"# failed_frac {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.4f}")
    reported = {key: {"value": metrics[key], "unit": unit}
                for key, unit in units.items() if key in metrics}
    for key, value in reported.items():
        print(f"# {key:32s} {value['value']:.6g} {value['unit']}")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": reported,
    }, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
