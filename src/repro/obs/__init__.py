"""``repro.obs`` — structured tracing, time-series sampling, timelines.

SafetyNet's headline claim is *availability*: what matters in a run is
when checkpoint edges fired, when validation signed each epoch off, how
long a fault went undetected, and how wide each rollback was.  Aggregate
counters (``repro.sim.stats``) and the dispatch histogram (``repro
profile``) cannot answer "what happened between the fault at cycle 41k
and the rollback at cycle 55k?" — this package can:

* :mod:`~repro.obs.trace` — :class:`TraceLog`, a typed event journal fed
  by explicit instrumentation points in the checkpoint clock, validation
  agents, service controllers, recovery manager, network, and fault
  injectors (wired up by :meth:`Machine.attach_tracer
  <repro.system.machine.Machine.attach_tracer>`), exportable as
  Chrome-trace/Perfetto JSON with one track per node/subsystem;
* :mod:`~repro.obs.sampler` — :class:`Sampler`, a configurable-cadence
  time-series capture of CLB occupancy, network buffer depth,
  outstanding transactions, and deadline-table population;
* :mod:`~repro.obs.timeline` — the per-epoch availability timeline
  (edge cycle, sign-off lag) and recovery-episode extraction that powers
  the ROADMAP recovery-latency / validation fan-in science;
* :mod:`~repro.obs.fabric` — the campaign fabric's flight recorder:
  parse ``<store>.journal/events.jsonl`` (lease claims, requeues,
  quarantines, chaos injections) and summarise campaign health for
  ``repro sweep --status``.

Everything here is observation only: a :class:`TraceLog` never schedules
kernel events and never touches RNG state, so a traced run is
bit-identical to an untraced one, and the tracer-off path costs nothing
(guarded by ``tests/test_obs.py`` and the no-tracer floor in
``benchmarks/test_kernel_hotpath.py``).  The ``repro trace`` CLI
subcommand drives all three pieces on one run.
"""

from repro.obs.fabric import FABRIC_EVENTS, fabric_summary, load_fabric_events
from repro.obs.sampler import SAMPLE_FIELDS, Sampler
from repro.obs.timeline import (
    availability_timeline,
    recovery_episodes,
    timeline_summary,
)
from repro.obs.trace import (
    KIND_DETECT,
    KIND_EDGE,
    KIND_INJECT,
    KIND_LOST,
    KIND_RECOVERY_BEGIN,
    KIND_RECOVERY_END,
    KIND_RECOVERY_RESTORE,
    KIND_RPCN_ADVANCE,
    KIND_RPCN_APPLY,
    KIND_SIGNOFF,
    KIND_ANNOUNCE,
    TraceLog,
    TraceRecord,
    chrome_trace,
    counts_table,
    validate_chrome_trace,
    write_chrome_trace,
)

__all__ = [
    "TraceLog",
    "TraceRecord",
    "chrome_trace",
    "counts_table",
    "validate_chrome_trace",
    "write_chrome_trace",
    "Sampler",
    "SAMPLE_FIELDS",
    "FABRIC_EVENTS",
    "fabric_summary",
    "load_fabric_events",
    "availability_timeline",
    "recovery_episodes",
    "timeline_summary",
    "KIND_EDGE",
    "KIND_ANNOUNCE",
    "KIND_SIGNOFF",
    "KIND_RPCN_ADVANCE",
    "KIND_RPCN_APPLY",
    "KIND_INJECT",
    "KIND_DETECT",
    "KIND_LOST",
    "KIND_RECOVERY_BEGIN",
    "KIND_RECOVERY_RESTORE",
    "KIND_RECOVERY_END",
]
