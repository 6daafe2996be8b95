"""repro - a reproduction of SafetyNet (Sorin, Martin, Hill, Wood; ISCA 2002).

SafetyNet improves shared-memory multiprocessor availability with a
unified, lightweight global checkpoint/recovery mechanism: consistent
system-wide checkpoints coordinated in logical time, incremental
checkpointing via once-per-interval undo logging into Checkpoint Log
Buffers, pipelined background validation that tolerates long fault
detection latencies, and whole-machine rollback + re-execution on faults.

Quick start::

    from repro import Machine, SystemConfig, workloads

    cfg = SystemConfig.sim_scaled()    # the paper's 4x4; from_shape(W, H) for others
    machine = Machine(cfg, workloads.apache(num_cpus=cfg.num_processors,
                                            scale=16), seed=1)
    machine.inject_transient_faults(period=60_000)
    result = machine.run(instructions_per_cpu=20_000)
    assert not result.crashed          # SafetyNet survives the faults
    print(machine.recovery.stats)

Package layout:

* ``repro.sim`` - deterministic discrete-event kernel, statistics and
  dispatch profiling;
* ``repro.config`` - Table 2 parameters and the scaled presets;
* ``repro.core`` - SafetyNet itself (CLBs, checkpoint clock, recovery,
  output/input commit);
* ``repro.checkpoint`` - pipelined checkpoint validation (per-node
  agents, service controllers, the participant protocol);
* ``repro.coherence`` - the directory protocols (mosi, mesi, moesi) and
  the snooping variant;
* ``repro.interconnect`` - the half-switch 2D torus with fault injection;
* ``repro.detection`` - error codes, checkers, and corruption faults;
* ``repro.processor`` / ``repro.workloads`` - cores and Table 3 workloads;
* ``repro.system`` - node and machine assembly;
* ``repro.experiments`` - the campaign engine: declarative RunSpec/Sweep
  grids, a parallel resumable Runner + JSONL ResultStore, and per-cell
  aggregation (also the ``repro sweep`` CLI subcommand);
* ``repro.obs`` - structured tracing, sampling and timelines;
* ``repro.analysis`` - multi-seed normalisation and chart/table rendering;
* ``repro.cli`` - the ``repro`` / ``python -m repro`` command line.
"""

from repro.config import SystemConfig
from repro.system.machine import Machine, RunResult
from repro import workloads

__version__ = "1.0.0"

__all__ = [
    "SystemConfig",
    "Machine",
    "RunResult",
    "workloads",
    "__version__",
]
