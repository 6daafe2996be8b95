#!/usr/bin/env python3
"""Regenerate ``pins.json``: every workload's simulated outputs per pinned seed.

    python3 perfbench/pin.py

Pins are the benchmark's correctness oracle: a run whose cycles,
committed instructions, recoveries, lost instructions or stats digest
differ from its pin counts as failed.  Regenerate them only for a change
that is meant to alter simulated behaviour, and say so in its history.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(HERE))
    import run
    import workloads as W

    run.load_program()
    from repro.experiments.runner import build_machine, execute_run

    pins = {}
    for name in W.SINGLE:
        pins[name] = {}
        for seed in W.PINNED_SEEDS:
            spec = W.single_spec(name, seed)
            machine = build_machine(spec)
            result = machine.run(spec.instructions, max_cycles=spec.max_cycles)
            problems = W.machine_problems(spec, machine, result)
            if problems:
                raise SystemExit(f"{name} seed {seed}: {problems}")
            pins[name][str(seed)] = W.result_outputs(result)
            print(name, seed, pins[name][str(seed)], flush=True)
    pins[W.CAMPAIGN] = {}
    for seed in W.PINNED_SEEDS:
        for spec in W.campaign_sweep(seed).expand():
            record = execute_run(spec)
            if record.crashed or not record.completed:
                raise SystemExit(f"campaign cell {spec.label()} failed")
            pins[W.CAMPAIGN][spec.spec_hash] = W.record_outputs(record)
        print(W.CAMPAIGN, seed, flush=True)
    with open(W.PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
