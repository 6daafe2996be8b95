"""The benchmark's workloads, seed mapping and pinned simulated outputs.

A workload is a fixed amount of simulated work.  ``--seed n`` picks the
simulation seed ``TUNE_SEEDS[n % len(TUNE_SEEDS)]``, so any seed the
caller passes lands on an input whose outputs are pinned in
``pins.json``; a timed run starts there and cycles through the other
tuning seeds (:func:`rotation`).  ``HOLDOUT_SEED`` is pinned too but
never reached through ``--seed``: a performance claim tuned on the other
seeds must also hold with ``--sim-seed 101``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
PINS_PATH = HERE / "pins.json"

TUNE_SEEDS = (1, 2, 3, 4, 5, 6, 7, 8)
HOLDOUT_SEED = 101
PINNED_SEEDS = TUNE_SEEDS + (HOLDOUT_SEED,)

#: Single-machine workloads: RunSpec fields (the seed is added per run).
SINGLE: Dict[str, Dict[str, Any]] = {
    # Network-bound: 64 CPUs, long routes, the biggest topology to build.
    "apache-8x8": dict(workload="apache", instructions=2_000,
                       torus_width=8, torus_height=8),
    # CPU-bound counterpart: the burst loop dominates, little transport.
    "apache-2x2": dict(workload="apache", instructions=120_000,
                       torus_width=2, torus_height=2),
    # Recovery path: a message dropped every 30k cycles from cycle 30k,
    # each drop detected through the home-side request timeout.
    "jbb-4x4-transient": dict(workload="jbb", instructions=4_000,
                              torus_width=4, torus_height=4,
                              fault="transient", fault_period=30_000,
                              fault_at=30_000,
                              config_overrides=(("home_request_timeout",
                                                 6_000),)),
}
CAMPAIGN = "campaign-filequeue"
WORKLOADS = tuple(SINGLE) + (CAMPAIGN,)

#: The campaign: 24 short cells on the filequeue fabric.
CAMPAIGN_JOBS = 2
CAMPAIGN_BASE = dict(instructions=2_000, scale=64)
CAMPAIGN_GRID = {"workload": ["apache", "jbb", "oltp"],
                 "torus": ["2x2", "4x4"]}
CAMPAIGN_SEEDS_PER_CELL = 4


def sim_seed_for(seed: int) -> int:
    return TUNE_SEEDS[seed % len(TUNE_SEEDS)]


def rotation(sim_seed: int) -> List[int]:
    """The simulation seeds a timed run cycles through, ``sim_seed`` first.

    A tuning seed starts a tour of all of them; the held-out seed is
    run on its own.
    """
    if sim_seed not in TUNE_SEEDS:
        return [sim_seed]
    start = TUNE_SEEDS.index(sim_seed)
    return list(TUNE_SEEDS[start:] + TUNE_SEEDS[:start])


def single_spec(name: str, sim_seed: int):
    from repro.experiments.spec import RunSpec
    return RunSpec(seed=sim_seed, **SINGLE[name])


def campaign_sweep(sim_seed: int):
    from repro.experiments.spec import RunSpec, Sweep
    first = sim_seed * 10
    return Sweep(base=RunSpec(**CAMPAIGN_BASE), grid=CAMPAIGN_GRID,
                 seeds=[first + k for k in range(CAMPAIGN_SEEDS_PER_CELL)])


# ----------------------------------------------------------------------
# Pinned outputs
# ----------------------------------------------------------------------
def digest(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def result_outputs(result) -> Dict[str, Any]:
    """The pinned outputs of one ``RunResult``."""
    return {"cycles": result.cycles,
            "committed": result.committed_instructions,
            "recoveries": result.recoveries,
            "lost": result.lost_instructions,
            "stats": digest(result.stats)}


def record_outputs(record) -> Dict[str, Any]:
    """The pinned outputs of one campaign ``RunRecord``."""
    return {"cycles": record.cycles,
            "committed": record.committed_instructions,
            "recoveries": record.recoveries,
            "lost": record.lost_instructions,
            "stats": digest(record.result_key())}


def load_pins() -> Dict[str, Dict[str, Dict[str, Any]]]:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def machine_problems(spec, machine, result) -> List[str]:
    """Why this run is not the machine and work ``spec`` describes."""
    problems = []
    cfg = machine.config
    if (cfg.torus_width, cfg.torus_height) != (spec.torus_width,
                                               spec.torus_height):
        problems.append(f"built a {cfg.torus_width}x{cfg.torus_height} torus")
    if len(machine.nodes) != spec.torus_width * spec.torus_height:
        problems.append(f"built {len(machine.nodes)} nodes")
    if result.target_instructions != spec.instructions * len(machine.nodes):
        problems.append(f"target {result.target_instructions} instructions")
    if result.crashed or not result.completed:
        problems.append(f"did not complete ({result.crash_reason})")
    return problems


def output_problems(got: Dict[str, Any],
                    pinned: Optional[Dict[str, Any]]) -> List[str]:
    if pinned is None:
        return ["no pinned outputs for this input"]
    return [f"{key} {got[key]} != pinned {pinned[key]}"
            for key in pinned if got[key] != pinned[key]]
