"""Profiling harness: where do the kernel's dispatches and the wall-clock go?

Two complementary views of one run:

* **Kernel event-label histogram** — the simulator attaches a
  :class:`DispatchProfile` as the :class:`~repro.sim.kernel.Simulator`
  tracer, so every dispatched event contributes (count, exclusive wall
  seconds) to its label (``core.burst``, ``net.hop``, ``cache.timeout``,
  ...).  This is the view that found the dead-timeout problem: on a busy
  pre-overhaul run ``cache.timeout`` was ~7% of all dispatches without
  ever doing anything (see ISSUE/ROADMAP; the deadline tables in
  :mod:`repro.sim.deadlines` collapse it to <1%).
* **cProfile** — function-level hot spots, for the costs the event view
  cannot see (the burst loop's inline work, the workload hash).

Both charge a pause of Python's cycle collector to whichever callback
happened to allocate when it ran, so the report also counts the
collector itself (:class:`CollectorProfile`): collections per
generation, seconds, and objects reclaimed.  A run that reclaims
anything is leaving reference cycles behind.

``repro profile`` (the CLI entry; see :func:`repro.cli.cmd_profile`) runs
one :class:`~repro.experiments.spec.RunSpec` under both and emits a table
and/or JSON.  Future PRs should start here when hunting the next hot
path; the guarded-benchmark inventory in the README records where the
previous ones went.
"""

from __future__ import annotations

import cProfile
import gc
import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional

#: Labels the kernel dispatches with no label string attached.
UNLABELLED = "(unlabelled)"


class DispatchProfile:
    """Per-label dispatch counts and exclusive wall-clock seconds.

    Plug into a simulator with ``sim.tracer = DispatchProfile()``; the
    kernel calls :meth:`record` once per dispatched event.  "Exclusive"
    is from the event-loop's point of view: each callback's whole run is
    attributed to the label of the event that triggered it.
    """

    __slots__ = ("counts", "seconds")

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self.seconds: Dict[str, float] = {}

    def record(self, label: str, seconds: float) -> None:
        label = label or UNLABELLED
        counts = self.counts
        counts[label] = counts.get(label, 0) + 1
        secs = self.seconds
        secs[label] = secs.get(label, 0.0) + seconds

    # ------------------------------------------------------------------
    @property
    def total_dispatches(self) -> int:
        return sum(self.counts.values())

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def dispatch_fraction(self, label: str) -> float:
        """``label``'s share of all dispatched events (0.0 if none)."""
        total = self.total_dispatches
        return self.counts.get(label, 0) / total if total else 0.0

    def rows(self, top: Optional[int] = None) -> List[Dict[str, Any]]:
        """Per-label summary rows, heaviest exclusive time first."""
        total_n = self.total_dispatches or 1
        total_s = self.total_seconds or 1.0
        rows = [
            {
                "label": label,
                "dispatches": self.counts[label],
                "dispatch_frac": self.counts[label] / total_n,
                "seconds": self.seconds[label],
                "seconds_frac": self.seconds[label] / total_s,
            }
            for label in self.counts
        ]
        rows.sort(key=lambda r: (-r["seconds"], r["label"]))
        return rows[:top] if top is not None else rows

    def to_dict(self) -> Dict[str, Any]:
        return {
            "total_dispatches": self.total_dispatches,
            "total_seconds": self.total_seconds,
            "labels": self.rows(),
        }


class CollectorProfile:
    """Cycle-collector activity while it is one of ``gc.callbacks``.

    ``collections[g]`` counts the collections of generation ``g``,
    ``seconds`` is their summed wall-clock and ``reclaimed`` the
    unreachable objects they found (cyclic garbage; what reference
    counting frees never reaches the collector).
    """

    __slots__ = ("collections", "seconds", "reclaimed", "_started")

    def __init__(self) -> None:
        self.collections: List[int] = [0] * len(gc.get_count())
        self.seconds = 0.0
        self.reclaimed = 0
        self._started = 0.0

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = perf_counter()
            return
        self.seconds += perf_counter() - self._started
        self.collections[info["generation"]] += 1
        self.reclaimed += info["collected"]

    def to_dict(self) -> Dict[str, Any]:
        return {"collections": list(self.collections),
                "seconds": self.seconds, "reclaimed": self.reclaimed}


def _function_name(code) -> str:
    """A compact ``file:line(func)`` name for a cProfile entry."""
    if isinstance(code, str):
        return code  # builtin, e.g. "<built-in method ...>"
    filename = "/".join(code.co_filename.split("/")[-2:])
    return f"{filename}:{code.co_firstlineno}({code.co_name})"


def hot_functions(prof: cProfile.Profile, top: int = 15) -> List[Dict[str, Any]]:
    """The profiler's heaviest functions by exclusive (self) time."""
    entries = []
    for entry in prof.getstats():
        entries.append({
            "function": _function_name(entry.code),
            "calls": entry.callcount,
            "exclusive_s": entry.inlinetime,
            "cumulative_s": entry.totaltime,
        })
    entries.sort(key=lambda e: (-e["exclusive_s"], e["function"]))
    return entries[:top]


@dataclass
class ProfileReport:
    """Everything one profiled run produced (JSON-safe via to_dict)."""

    spec: Dict[str, Any]              # RunSpec.canonical()
    wall_seconds: float
    cycles: int
    committed_instructions: int
    completed: bool
    crashed: bool
    recoveries: int
    events_dispatched: int
    peak_pending: int                 # deepest the kernel queue ever got
    dispatch: DispatchProfile
    functions: List[Dict[str, Any]] = field(default_factory=list)
    #: Express-hop efficiency (see Network): hop dispatches vs hops
    #: advanced arithmetically, and the fraction of hops that rode an
    #: express segment.  Empty when the machine has no network counters.
    network: Dict[str, Any] = field(default_factory=dict)
    #: Coherence-protocol efficiency (see coherence_efficiency): E fills,
    #: silent-upgrade fraction, writebacks avoided vs mosi.  Empty for
    #: protocols without an E state.
    coherence: Dict[str, Any] = field(default_factory=dict)
    #: The cycle collector during the run (:meth:`CollectorProfile.to_dict`).
    gc: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec,
            "wall_seconds": self.wall_seconds,
            "result": {
                "cycles": self.cycles,
                "committed_instructions": self.committed_instructions,
                "completed": self.completed,
                "crashed": self.crashed,
                "recoveries": self.recoveries,
            },
            "events_dispatched": self.events_dispatched,
            "peak_pending": self.peak_pending,
            "kernel_events": self.dispatch.to_dict(),
            "hot_functions": self.functions,
            "network": self.network,
            "coherence": self.coherence,
            "gc": self.gc,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def profile_spec(spec, *, use_cprofile: bool = True,
                 top_functions: int = 15) -> ProfileReport:
    """Build the machine ``spec`` describes and run it under the profilers.

    The event-label histogram is always collected; cProfile is optional
    (it costs roughly 2x wall-clock).  Warmup, faults, shapes, and config
    overrides all come from the spec, exactly as ``repro run`` / the
    campaign engine would execute it.

    The collector is counted around ``machine.run`` only, after a
    ``gc.collect()`` so that garbage left by earlier work (the build
    included) is not charged to the run.
    """
    # Imported lazily: the sim layer must not depend on the experiment
    # layer at import time (profile is the one place the two meet).
    from repro.experiments.runner import build_machine

    machine = build_machine(spec)
    dispatch = DispatchProfile()
    machine.sim.tracer = dispatch
    prof = cProfile.Profile() if use_cprofile else None
    collector = CollectorProfile()
    gc.collect()
    gc.callbacks.append(collector)
    started = perf_counter()
    if prof is not None:
        prof.enable()
    try:
        result = machine.run(spec.instructions, max_cycles=spec.max_cycles,
                             warmup=spec.warmup)
    finally:
        if prof is not None:
            prof.disable()
        gc.callbacks.remove(collector)
    wall = perf_counter() - started
    network = network_efficiency(machine, dispatch)
    coherence = coherence_efficiency(machine)
    return ProfileReport(
        spec=spec.canonical(),
        wall_seconds=wall,
        cycles=result.cycles,
        committed_instructions=result.committed_instructions,
        completed=result.completed,
        crashed=result.crashed,
        recoveries=result.recoveries,
        events_dispatched=machine.sim.events_dispatched,
        peak_pending=machine.sim.peak_pending,
        dispatch=dispatch,
        functions=hot_functions(prof, top_functions) if prof is not None else [],
        network=network,
        coherence=coherence,
        gc=collector.to_dict(),
    )


def coherence_efficiency(machine) -> Dict[str, Any]:
    """Coherence-protocol efficiency of one profiled run.

    Totals the per-node ``coh.*`` transition counters: E fills, silent
    E->M upgrades, clean evictions, and owner downgrades on remote
    reads.  ``silent_upgrade_fraction`` is the share of all store
    upgrades that needed no network transaction, and
    ``writebacks_avoided`` counts the clean (PUTE) evictions that a MOSI
    run would have shipped as data writebacks.  Empty for protocols
    without an E state (mosi registers no coh counters at all, which is
    what keeps the default run's stats snapshot bit-identical).
    """
    nodes = getattr(machine, "nodes", None)
    if not nodes:
        return {}
    protocol = getattr(nodes[0].cache, "protocol", None)
    if protocol is None or not protocol.has_exclusive:
        return {}
    fill_e = sum(n.cache.c_fill_e.value for n in nodes)
    silent = sum(n.cache.c_silent_upgrade.value for n in nodes)
    networked = sum(n.cache.c_upgrades.value for n in nodes)
    clean = sum(n.cache.c_clean_evict.value for n in nodes)
    downgrades = sum(n.cache.c_downgrade.value for n in nodes)
    upgrades = silent + networked
    return {
        "protocol": protocol.name,
        "fill_e": fill_e,
        "silent_upgrades": silent,
        "networked_upgrades": networked,
        "silent_upgrade_fraction": (silent / upgrades if upgrades else 0.0),
        "writebacks_avoided": clean,
        "downgrades": downgrades,
    }


def network_efficiency(machine, dispatch: DispatchProfile) -> Dict[str, Any]:
    """Express-hop efficiency of one profiled run.

    ``hops_per_dispatch`` is total hops advanced (per-switch events plus
    hops covered arithmetically by express segments) over the dispatches
    that advanced them — the express win is exactly this ratio climbing
    above 1.0.  ``express_hop_fraction`` is the share of hops that rode
    an express segment.  Empty for machines without a network.
    """
    net = getattr(machine, "network", None)
    if net is None or not hasattr(net, "c_express_hops"):
        return {}
    hop_dispatches = dispatch.counts.get("net.hop", 0)
    express_dispatches = dispatch.counts.get("net.express", 0)
    express_hops = net.c_express_hops.value
    total_hops = hop_dispatches + express_hops
    total_dispatches = hop_dispatches + express_dispatches
    return {
        "hop_dispatches": hop_dispatches,
        "express_dispatches": express_dispatches,
        "express_flights": net.c_express_flights.value,
        "express_hops": express_hops,
        "express_interrupts": net.c_express_interrupts.value,
        "hops_per_dispatch": (total_hops / total_dispatches
                              if total_dispatches else 0.0),
        "express_hop_fraction": (express_hops / total_hops
                                 if total_hops else 0.0),
    }
