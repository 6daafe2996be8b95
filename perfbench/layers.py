"""Per-layer attribution of one traced simulation, from outside the program.

:class:`LayerTrace` uses only public hooks:

* it is the kernel's ``Simulator.tracer`` (the hook ``DispatchProfile``
  uses), so every dispatched event reports ``(label, seconds)``;
* it wraps ``Network.send`` and re-attaches every node endpoint with
  ``Network.attach``, timing each call as a *span*.

A dispatch's or span's *self* time is its duration minus the spans
nested inside it.  So ``net.deliver`` is charged only for the transport's
own work, the coherence handlers it calls are charged to
``coherence.handler``, and the messages those handlers send are charged
to ``interconnect.send``.  The kernel's own pop/schedule/recycle cost is
what is left of the traced wall time once every callback is subtracted.

:func:`layer_metrics` turns a traced run into the benchmark's per-layer
metrics; ``NOTES.md`` maps each to the end-to-end metric it should move.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict

#: Kernel-label prefix -> the repo module (layer) that owns the callback.
#: Checked in order; the first matching prefix wins.
LABEL_LAYERS = (
    ("net.", "interconnect"),
    ("core.issue_miss", "coherence"),
    ("home.", "coherence"),
    ("cache.", "coherence"),
    ("core.", "processor"),
    ("ckpt.", "checkpoint"),
    ("validate.", "checkpoint"),
    ("recovery.", "recovery"),
    ("fault.", "detection"),
    ("detect.", "detection"),
)
#: Span name -> layer.
SPAN_LAYERS = {"send": "interconnect", "handler": "coherence"}
LAYERS = ("sim", "interconnect", "coherence", "processor", "checkpoint",
          "recovery", "detection", "other")


def layer_of(label: str) -> str:
    for prefix, layer in LABEL_LAYERS:
        if label.startswith(prefix):
            return layer
    return "other"


class LayerTrace:
    """Kernel tracer plus nested call spans, accumulated over any number
    of traced runs (a campaign folds its cells into one trace).

    Self times are kept in two ``DispatchProfile`` histograms: ``labels``
    per kernel-event label, ``spans`` per span name.
    """

    def __init__(self) -> None:
        from repro.sim.profile import DispatchProfile

        self.labels = DispatchProfile()
        self.spans = DispatchProfile()
        for name in SPAN_LAYERS:
            self.spans.counts[name] = 0
            self.spans.seconds[name] = 0.0
        self.dispatch_s = 0.0                  # sum of whole callback times
        self.wall_s = 0.0                      # traced Machine.run seconds
        self._nested = 0.0                     # span time inside the open frame

    # -- Simulator.tracer protocol ----------------------------------------
    def record(self, label: str, seconds: float) -> None:
        self.labels.record(label, seconds - self._nested)
        self.dispatch_s += seconds
        self._nested = 0.0

    # -- spans --------------------------------------------------------------
    def span(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so each call is timed as span ``name``."""
        record = self.spans.record

        def timed(*args):
            outer = self._nested
            self._nested = 0.0
            started = perf_counter()
            try:
                return fn(*args)
            finally:
                took = perf_counter() - started
                record(name, took - self._nested)
                self._nested = outer + took

        return timed

    def attach(self, machine) -> None:
        """Hook this trace into a freshly built machine."""
        machine.sim.tracer = self
        net = machine.network
        endpoints = machine.checkers or machine.nodes
        for node_id, endpoint in enumerate(endpoints):
            net.attach(node_id, self.span("handler", endpoint.deliver))
        net.send = self.span("send", net.send)

    def run(self, machine, spec):
        """Run ``machine`` traced; returns the ``RunResult``."""
        self.attach(machine)
        self._nested = 0.0
        started = perf_counter()
        result = machine.run(spec.instructions, max_cycles=spec.max_cycles)
        self.wall_s += perf_counter() - started
        return result

    # -- roll-ups -------------------------------------------------------------
    def n(self, prefix: str) -> int:
        """Dispatches of every kernel label starting with ``prefix``."""
        return sum(n for label, n in self.labels.counts.items()
                   if label.startswith(prefix))

    def s(self, prefix: str) -> float:
        """Self seconds of every kernel label starting with ``prefix``."""
        return sum(s for label, s in self.labels.seconds.items()
                   if label.startswith(prefix))

    @property
    def loop_self_s(self) -> float:
        """Traced wall minus every callback: the kernel's own cost."""
        return self.wall_s - self.dispatch_s

    def layer_seconds(self) -> Dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        out["sim"] = self.loop_self_s
        for label, secs in self.labels.seconds.items():
            out[layer_of(label)] += secs
        for name, secs in self.spans.seconds.items():
            out[SPAN_LAYERS[name]] += secs
        return out


class MachineTotals:
    """Model counters summed over every traced machine of a workload."""

    FIELDS = ("committed", "reexecuted", "recoveries", "lost",
              "recovery_cycles", "faults_detected", "messages", "bytes",
              "contention_cycles", "messages_lost", "express_hops",
              "clb_entries", "peak_pending")

    def __init__(self) -> None:
        for name in self.FIELDS:
            setattr(self, name, 0)

    def add(self, machine, result) -> None:
        net = machine.network
        rec = machine.recovery.stats
        self.committed += result.committed_instructions
        self.reexecuted += result.reexecuted_instructions
        self.recoveries += result.recoveries
        self.lost += result.lost_instructions
        self.recovery_cycles += sum(rec.recovery_latencies)
        self.faults_detected += rec.faults_reported
        self.messages += net.c_messages_sent.value
        self.bytes += net.c_bytes_sent.value
        self.contention_cycles += net.c_contention_cycles.value
        self.messages_lost += net.c_messages_lost.value
        self.express_hops += net.c_express_hops.value
        self.clb_entries += (machine.stats.sum_counters(".stores_logged")
                             + machine.stats.sum_counters(".transfers_logged"))
        self.peak_pending = max(self.peak_pending, machine.sim.peak_pending)


#: Per-layer metric name -> unit, in report order.  Work counts are
#: deterministic; ``*_s`` values are host seconds of the traced run.
UNITS = {
    "sim.dispatches": "count",
    "sim.loop_self_s": "s",
    "sim.events_per_s": "1/s",
    "sim.peak_pending": "count",
    "interconnect.hop.n": "count",
    "interconnect.hop.self_s": "s",
    "interconnect.express.n": "count",
    "interconnect.hops_per_dispatch": "ratio",
    "interconnect.deliver.self_s": "s",
    "interconnect.send.n": "count",
    "interconnect.send.self_s": "s",
    "interconnect.messages": "count",
    "interconnect.bytes": "B",
    "interconnect.contention_cycles": "cycles",
    "interconnect.messages_lost": "count",
    "coherence.handler.n": "count",
    "coherence.handler.self_s": "s",
    "coherence.home.n": "count",
    "coherence.home.s": "s",
    "coherence.miss.n": "count",
    "coherence.miss.s": "s",
    "coherence.timeout_sweep.n": "count",
    "processor.burst.n": "count",
    "processor.burst.s": "s",
    "processor.instr_per_burst": "ratio",
    "checkpoint.edges": "count",
    "checkpoint.validate.n": "count",
    "checkpoint.validate.s": "s",
    "checkpoint.clb_entries": "count",
    "recovery.n": "count",
    "recovery.s": "s",
    "recovery.lost_instr": "count",
    "recovery.reexec_instr": "count",
    "recovery.latency_cycles": "cycles",
    "detection.fault.n": "count",
    "experiments.cells": "count",
    "experiments.cell_s": "s",
    "experiments.overhead_s": "s",
    "experiments.pool_wall_s": "s",
    "experiments.retries": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.attributed_frac": "ratio",
    **{f"layer.{name}.s": "s" for name in LAYERS},
}

#: The metrics that must repeat exactly between two runs of one input.
WORK_COUNTS = tuple(
    name for name, unit in UNITS.items()
    if unit in ("count", "cycles", "B") and not name.startswith("experiments.")
) + ("interconnect.hops_per_dispatch", "processor.instr_per_burst")


def layer_metrics(trace: LayerTrace, totals: MachineTotals,
                  untraced_wall_s: float) -> Dict[str, float]:
    """Every non-campaign per-layer metric of one traced workload.

    ``trace`` holds one traced run (or, for a campaign, all its cells);
    ``untraced_wall_s`` is the matching tracing-off wall time, which sets
    ``sim.events_per_s`` and ``trace.overhead_s``.
    """
    dispatches = trace.labels.total_dispatches
    hop_n = trace.n("net.hop")
    express_n = trace.n("net.express")
    hop_dispatches = hop_n + express_n
    bursts = trace.n("core.burst")
    layers = trace.layer_seconds()
    out = {
        "sim.dispatches": dispatches,
        "sim.loop_self_s": trace.loop_self_s,
        "sim.events_per_s": dispatches / untraced_wall_s,
        "sim.peak_pending": totals.peak_pending,
        "interconnect.hop.n": hop_n,
        "interconnect.hop.self_s": trace.s("net.hop"),
        "interconnect.express.n": express_n,
        "interconnect.hops_per_dispatch": (
            (hop_n + totals.express_hops) / hop_dispatches
            if hop_dispatches else 0.0),
        "interconnect.deliver.self_s": trace.s("net.deliver"),
        "interconnect.send.n": trace.spans.counts["send"],
        "interconnect.send.self_s": trace.spans.seconds["send"],
        "interconnect.messages": totals.messages,
        "interconnect.bytes": totals.bytes,
        "interconnect.contention_cycles": totals.contention_cycles,
        "interconnect.messages_lost": totals.messages_lost,
        "coherence.handler.n": trace.spans.counts["handler"],
        "coherence.handler.self_s": trace.spans.seconds["handler"],
        "coherence.home.n": trace.n("home."),
        "coherence.home.s": trace.s("home."),
        "coherence.miss.n": trace.n("core.issue_miss"),
        "coherence.miss.s": trace.s("core.issue_miss"),
        "coherence.timeout_sweep.n": trace.n("cache.timeout_sweep"),
        "processor.burst.n": bursts,
        "processor.burst.s": trace.s("core.burst"),
        "processor.instr_per_burst": (
            (totals.committed + totals.reexecuted) / bursts if bursts else 0.0),
        "checkpoint.edges": trace.n("ckpt.edge"),
        "checkpoint.validate.n": trace.n("validate."),
        "checkpoint.validate.s": trace.s("validate."),
        "checkpoint.clb_entries": totals.clb_entries,
        "recovery.n": totals.recoveries,
        "recovery.s": trace.s("recovery."),
        "recovery.lost_instr": totals.lost,
        "recovery.reexec_instr": totals.reexecuted,
        "recovery.latency_cycles": totals.recovery_cycles,
        "detection.fault.n": totals.faults_detected,
        "trace.wall_s": trace.wall_s,
        "trace.overhead_s": trace.wall_s - untraced_wall_s,
        "trace.attributed_frac": 1.0 - layers["other"] / trace.wall_s,
    }
    for name, secs in layers.items():
        out[f"layer.{name}.s"] = secs
    return out
