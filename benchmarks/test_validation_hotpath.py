"""Checkpoint-validation hot-path guard: no periodic validation events.

The recovery-point advance (paper §2.4, §3.5) is a fuzzy barrier that is
*usually idle*: between checkpoint-clock edges nothing about a node's
sign-off can change unless a transaction spanning an edge completes.  The
validation agent therefore recomputes readiness only on the events that
can change it (clock edges, pre-edge transaction completions,
detection-window closes, recovery), with a send-armed resync timer as the
dropped-coordination-message insurance.

On an idle protected machine (clock + validation running, cores parked)
that is at most one announcement and one resync check per node per
checkpoint interval — a structural, noise-free bound that any periodic
re-check loop would break.  The committed goldens
(``tests/data/protocol_golden.json``) pin full runs, including 8x8 ones.

``REPRO_BENCH_SMOKE=1`` shrinks the run for the CI smoke step.
"""

import time

from repro.config import SystemConfig
from repro.sim.profile import DispatchProfile
from repro.system.machine import Machine
from repro.workloads import by_name

from benchmarks.conftest import run_once, smoke_mode

SMOKE = smoke_mode()

# Checkpoint intervals per timed idle run.
INTERVALS = 40 if SMOKE else 200
# Validation-agent dispatches per node per interval: announce + resync.
MAX_VALIDATE_PER_NODE_INTERVAL = 2


def _idle_lifecycle():
    """Run only the checkpoint lifecycle: clock edges and sign-off
    coordination."""
    config = SystemConfig.sim_scaled(16)          # the default 4x4
    machine = Machine(
        config, by_name("apache", num_cpus=config.num_processors, scale=16,
                        seed=1),
        seed=1)
    profile = DispatchProfile()
    machine.sim.tracer = profile
    machine.clock.start()
    for node in machine.nodes:
        node.validation.start()
    started = time.perf_counter()
    machine.sim.run(limit=INTERVALS * config.checkpoint_interval)
    wall = time.perf_counter() - started
    return machine, profile, wall


def test_validation_scheduling_throughput(benchmark):
    machine, profile, wall = run_once(_idle_lifecycle, benchmark)
    events = machine.sim.events_dispatched
    validate = sum(n for label, n in profile.counts.items()
                   if label.startswith("validate."))
    per_node_interval = validate / (len(machine.nodes) * INTERVALS)
    print(f"\nvalidation lifecycle ({INTERVALS} checkpoint intervals): "
          f"{wall:.3f}s, {events:,} kernel events ({events / wall:,.0f}/s), "
          f"{per_node_interval:.2f} validation dispatches per node-interval")
    # Validation must actually have been advancing the recovery point.
    assert machine.controllers.rpcn >= INTERVALS - 1
    assert per_node_interval <= MAX_VALIDATE_PER_NODE_INTERVAL, (
        f"validation dispatched {per_node_interval:.2f} events per node "
        f"per interval (bound {MAX_VALIDATE_PER_NODE_INTERVAL})")
