"""Campaign execution: build a machine from a spec, run it, fault-tolerantly.

:func:`record_run` is the one place a spec's built machine is run and
its :class:`RunRecord` made: campaign cells, ``repro run``, ``repro
trace`` and ``repro profile`` all call it, each with its own observers
attached to the machine first.  :func:`execute_run` is the pure worker
— ``RunSpec`` in, :class:`RunRecord` out — used identically by every
executor backend.  :class:`Runner` owns campaign *policy*: it skips
every run already recorded in the
:class:`~repro.experiments.store.ResultStore` or its worker shards
(resume), journals in-flight cells in the
:class:`~repro.experiments.journal.AttemptJournal` (lease, heartbeat,
attempt count — so a killed worker's cells are re-queued on resume),
and hands the remainder to a backend from
:mod:`repro.experiments.backends` (``serial`` / ``pool`` /
``filequeue``), which owns placement.  Every campaign is journalled: a
caller that passes no store gets a private temporary one.  Every backend
settles a failed cell by one rule: retry with exponential backoff, then
*quarantine* it as a structured failed record instead of aborting the
sweep.  Results are recorded the moment each cell lands — an interrupted
campaign loses at most the runs in flight, and Ctrl-C releases leases
and keeps everything already persisted.

The pre-fabric runner's behaviour is exactly ``backend="pool",
retries=0`` — kept as the oracle for equivalence guards.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.config import SystemConfig
from repro.detection.codes import CRC16
from repro.experiments.spec import RunSpec
from repro.system.machine import Machine
from repro.workloads import by_name

#: Stats harvested into every record (small, stable, JSON-safe).
_METRIC_SUFFIXES = (
    "store_throttles",
    "nacks_sent",
    "fwd_clb_stalls",
    "messages_lost",
    "stores_logged",
    # Recovery-point lag: per-node (CCN - RPCN) summed at each broadcast
    # application, plus the application count — their ratio is the mean
    # validation lag in checkpoint intervals (detection-latency science).
    "rpcn_lag_intervals",
    "rpcn_updates",
)


def build_machine(spec: RunSpec) -> Machine:
    """Assemble the machine a spec describes (also used by the CLI)."""
    overrides: Dict[str, Any] = dict(spec.config_overrides)
    unknown = sorted(set(overrides) - {f.name for f in fields(SystemConfig)})
    if unknown:
        # Typically a flag that has since been removed: name it instead of
        # failing deep inside a preset with a constructor TypeError.
        raise ValueError(f"config_overrides names no SystemConfig field: "
                         f"{', '.join(unknown)}")
    if not spec.safetynet:
        overrides["safetynet_enabled"] = False
    if spec.interval is not None:
        overrides["checkpoint_interval"] = spec.interval
    if spec.clb_bytes is not None:
        overrides["clb_size_bytes"] = spec.clb_bytes
    if spec.protocol is not None:
        overrides["protocol"] = spec.protocol
    if spec.arbiter is not None:
        overrides["arbiter"] = spec.arbiter
    # No shape is the preset's own shape, where from_shape derives nothing.
    if spec.torus_width is not None:
        shape = (spec.torus_width, spec.torus_height)
    else:
        shape = (2, 2) if spec.preset == "tiny" else (4, 4)
    config = SystemConfig.from_shape(*shape, preset=spec.preset,
                                     scale=spec.scale, **overrides)
    workload = by_name(spec.workload, num_cpus=config.num_processors,
                       scale=spec.scale, seed=spec.seed)
    needs_checker = spec.fault in ("corrupt", "misroute")
    machine = Machine(config, workload, seed=spec.seed,
                      detection_latency=spec.detection_latency,
                      error_code=CRC16 if needs_checker else None)
    period = 60_000 if spec.fault_period is None else spec.fault_period
    if spec.fault == "transient":
        machine.inject_transient_faults(period, first_at=spec.fault_at)
    elif spec.fault == "switch":
        machine.inject_switch_kill(
            at_cycle=spec.fault_at if spec.fault_at is not None else 50_000)
    elif spec.fault == "corrupt":
        machine.inject_corruption_faults(period, first_at=spec.fault_at)
    elif spec.fault == "misroute":
        machine.inject_misroute_faults(period, first_at=spec.fault_at)
    return machine


@dataclass
class RunRecord:
    """One completed run: the spec, its outcome, and harvested metrics.

    ``elapsed_s`` (wall time) and ``cached`` (satisfied from the store)
    are bookkeeping, not results: every other field is a deterministic
    function of the spec.
    """

    spec: RunSpec
    spec_hash: str
    cycles: int
    committed_instructions: int
    target_instructions: int
    completed: bool
    crashed: bool
    crash_reason: Optional[str]
    recoveries: int
    lost_instructions: int
    reexecuted_instructions: int
    metrics: Dict[str, float] = field(default_factory=dict)
    elapsed_s: float = 0.0
    cached: bool = False
    #: Execution telemetry (wall seconds, kernel events dispatched,
    #: sim-cycles/sec, peak CLB occupancy): how the run *performed*, not
    #: what it computed — like ``elapsed_s`` it is machine-dependent and
    #: excluded from ``result_key()``.  Empty on records from stores that
    #: predate the field.
    telemetry: Dict[str, float] = field(default_factory=dict)
    #: Quarantine outcome: the fabric exhausted the cell's retry budget
    #: and recorded the failure instead of aborting the campaign.  A
    #: failed record carries no measurements (``failure`` holds the
    #: error, traceback, and attempt count) and is excluded from
    #: aggregation; ``result_key()`` is untouched so equivalence guards
    #: on healthy sweeps stay byte-stable.
    failed: bool = False
    failure: Optional[Dict[str, Any]] = None

    RESULT_FIELDS = (
        "cycles", "committed_instructions", "target_instructions",
        "completed", "crashed", "crash_reason", "recoveries",
        "lost_instructions", "reexecuted_instructions", "metrics",
    )

    @property
    def work_rate(self) -> float:
        """Committed instructions per cycle (0 for crashed runs)."""
        if self.crashed or not self.cycles:
            return 0.0
        return self.committed_instructions / self.cycles

    def result_key(self) -> Dict[str, Any]:
        """The deterministic payload (for equivalence comparisons)."""
        return {name: getattr(self, name) for name in self.RESULT_FIELDS}

    def to_dict(self) -> Dict[str, Any]:
        out = asdict(self)
        out["spec"] = self.spec.canonical()
        del out["cached"]
        if not self.failed:
            # Healthy records serialise exactly as they did before the
            # fields existed (old tools keep parsing, stores stay lean).
            del out["failed"], out["failure"]
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunRecord":
        data = dict(data)
        data.pop("cached", None)
        spec = RunSpec.from_dict(data.pop("spec"))
        return cls(spec=spec, **data)

    @classmethod
    def quarantined(cls, spec: RunSpec, error: str, *,
                    traceback_text: str = "",
                    attempts: int = 1) -> "RunRecord":
        """A structured failed record: what a cell leaves behind when its
        retry budget is exhausted (graceful degradation to partial
        results — the campaign records the post-mortem and moves on)."""
        return cls(
            spec=spec, spec_hash=spec.spec_hash, cycles=0,
            committed_instructions=0, target_instructions=0,
            completed=False, crashed=False, crash_reason=None,
            recoveries=0, lost_instructions=0, reexecuted_instructions=0,
            failed=True,
            failure={"error": error, "traceback": traceback_text,
                     "attempts": attempts},
        )


def record_run(spec: RunSpec, machine: Machine) -> RunRecord:
    """Run ``machine``, built from ``spec``, and make the run's record.

    Campaign cells and the ``run``, ``trace`` and ``profile`` commands
    all come through here, each with its observers already attached.
    ``elapsed_s`` and ``telemetry["wall_seconds"]`` time the run alone.
    """
    started = time.perf_counter()
    result = machine.run(spec.instructions, max_cycles=spec.max_cycles,
                         warmup=spec.warmup)
    elapsed = time.perf_counter() - started
    metrics: Dict[str, float] = {
        suffix: machine.stats.sum_counters("." + suffix)
        for suffix in _METRIC_SUFFIXES
    }
    metrics["peak_cache_clb_entries"] = max(
        n.cache_clb.peak_occupancy for n in machine.nodes)
    metrics["peak_home_clb_entries"] = max(
        n.home_clb.peak_occupancy for n in machine.nodes)
    events = machine.sim.events_dispatched
    telemetry: Dict[str, float] = {
        "wall_seconds": elapsed,
        "events_dispatched": events,
        "sim_cycles_per_second": result.cycles / elapsed if elapsed else 0.0,
        "events_per_second": events / elapsed if elapsed else 0.0,
        "peak_clb_entries": max(metrics["peak_cache_clb_entries"],
                                metrics["peak_home_clb_entries"]),
        "peak_pending_events": machine.sim.peak_pending,
    }
    outcome = {name: getattr(result, name)
               for name in RunRecord.RESULT_FIELDS if name != "metrics"}
    return RunRecord(spec=spec, spec_hash=spec.spec_hash, metrics=metrics,
                     elapsed_s=elapsed, telemetry=telemetry, **outcome)


def execute_run(spec: RunSpec) -> RunRecord:
    """Build, run, and summarise one spec (the process-pool work unit)."""
    return record_run(spec, build_machine(spec))


def check_fabric_settings(*, retries: int, cell_timeout: Optional[float],
                          lease_ttl: float, backoff_s: float) -> None:
    """Reject retry and lease settings no campaign can run under.

    Shared by :class:`Runner` and
    :func:`~repro.experiments.backends.run_worker`, so ``repro sweep``
    and ``repro worker`` accept the same values.  A zero lease TTL would
    reap every lease as soon as it is written, and a negative retry
    count would quarantine every cell unrun.  Raises ``ValueError``.
    """
    if not retries >= 0:
        raise ValueError("retries must be >= 0")
    if cell_timeout is not None and not cell_timeout > 0:
        raise ValueError("cell_timeout must be positive seconds")
    if not lease_ttl > 0:
        raise ValueError("lease_ttl must be positive seconds")
    if not backoff_s >= 0:
        raise ValueError("backoff_s must be >= 0 seconds")


def aggregate_telemetry(records: Sequence[RunRecord]) -> Dict[str, float]:
    """Campaign-level execution telemetry over completed records.

    Sums wall seconds and kernel events, means the throughput rates, and
    keeps the peak CLB occupancy — skipping records from stores that
    predate the telemetry block (they contribute nothing rather than
    zeros).  Surfaced by ``repro sweep --status``.
    """
    runs = [r for r in records if r.telemetry]
    out: Dict[str, float] = {"runs_with_telemetry": len(runs)}
    if not runs:
        return out
    out["total_wall_seconds"] = sum(
        r.telemetry.get("wall_seconds", 0.0) for r in runs)
    out["total_events_dispatched"] = sum(
        r.telemetry.get("events_dispatched", 0) for r in runs)
    out["mean_sim_cycles_per_second"] = sum(
        r.telemetry.get("sim_cycles_per_second", 0.0) for r in runs) / len(runs)
    out["mean_events_per_second"] = sum(
        r.telemetry.get("events_per_second", 0.0) for r in runs) / len(runs)
    out["peak_clb_entries"] = max(
        r.telemetry.get("peak_clb_entries", 0) for r in runs)
    out["peak_pending_events"] = max(
        r.telemetry.get("peak_pending_events", 0) for r in runs)
    return out


class Runner:
    """Executes a campaign of specs, resumably, fault-tolerantly, and
    (optionally) in parallel.

    ``backend`` names an executor in
    :mod:`repro.experiments.backends` — ``serial``, ``pool``
    (``ProcessPoolExecutor`` with ``jobs`` workers), ``filequeue``
    (elastic directory-queue workers), or ``auto`` (pool when ``jobs >
    1``).  A backend owns placement only: where and how many cells run
    at once.  Per-run results are identical on every backend: each run
    is an isolated deterministic simulation seeded only from its spec.

    Fabric policy, applied by every backend through one retry/quarantine
    decision:

    * runs recorded in the ``store`` or its worker shards are skipped on
      re-entry, fresh results are persisted as soon as each run
      finishes, and in-flight cells are journalled (lease + heartbeat +
      attempt count) next to the manifest so a killed session's cells
      re-queue on resume; without a ``store`` the campaign runs on a
      private temporary one, removed before :meth:`run` returns;
    * a failed attempt is retried up to ``retries`` times with
      exponential backoff (``backoff_s * 2**(attempt-1)``, capped at
      30 s: :func:`~repro.experiments.backends.backoff_delay`);
    * ``cell_timeout`` SIGKILLs a cell exceeding its wall-clock budget
      (attempts run in a disposable child process when a timeout or
      chaos policy is set);
    * when the budget is exhausted the cell is *quarantined* as a
      structured failed record — the campaign degrades to partial
      results instead of aborting;
    * Ctrl-C cancels queued work, persists whatever finished, and
      releases leases for instant resume.

    While a campaign has runs in flight, a heartbeat line is emitted
    through ``progress`` every ``heartbeat_s`` seconds (``0`` disables).
    Settings no campaign can run under (see
    :func:`check_fabric_settings`, plus ``jobs < 1`` and a negative
    ``heartbeat_s``) raise ``ValueError``.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        store=None,
        progress: Optional[Callable[[str], None]] = None,
        heartbeat_s: float = 30.0,
        backend: str = "auto",
        retries: int = 2,
        cell_timeout: Optional[float] = None,
        backoff_s: float = 0.5,
        lease_ttl: float = 60.0,
        chaos=None,
        retry_failed: bool = False,
    ) -> None:
        from repro.experiments.backends import resolve_backend
        from repro.experiments.chaos import ChaosConfig

        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        check_fabric_settings(retries=retries, cell_timeout=cell_timeout,
                              lease_ttl=lease_ttl, backoff_s=backoff_s)
        if not heartbeat_s >= 0:
            raise ValueError("heartbeat_s must be >= 0 seconds")
        self.jobs = jobs
        self.store = store
        self.progress = progress or (lambda line: None)
        self.heartbeat_s = heartbeat_s
        self.backend = resolve_backend(backend, jobs)
        self.retries = retries
        self.cell_timeout = cell_timeout
        self.backoff_s = backoff_s
        self.lease_ttl = lease_ttl
        self.chaos = ChaosConfig.from_env() if chaos is None else chaos
        self.retry_failed = retry_failed
        self.executed = 0
        self.skipped = 0
        self.quarantined = 0
        self.journal = None
        self._finished_records: List[RunRecord] = []
        self._campaign_started = 0.0

    @property
    def max_attempts(self) -> int:
        return self.retries + 1

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[RunSpec]) -> List[RunRecord]:
        """Run every spec, returning records in spec order.

        Duplicate specs (same hash) within the campaign execute once.
        Leftover worker shards are folded into the store before return.
        """
        if self.store is None:
            from repro.experiments.store import ResultStore

            with tempfile.TemporaryDirectory(prefix="repro-campaign-") as tmp:
                self.store = ResultStore(os.path.join(tmp, "store.jsonl"))
                try:
                    return self.run(specs)
                finally:
                    self.store = self.journal = None
        from repro.experiments.backends import BACKENDS

        recorded = self.store.with_shards()
        done: Dict[str, RunRecord] = {}
        todo: List[RunSpec] = []
        seen = set()
        for spec in specs:
            h = spec.spec_hash
            if h in seen:
                continue
            seen.add(h)
            cached = recorded.get(h)
            if cached is not None and not (cached.failed and
                                           self.retry_failed):
                cached.cached = True
                done[h] = cached
            else:
                todo.append(spec)
        self.skipped += len(done)
        if done:
            quarantined = sum(1 for r in done.values() if r.failed)
            note = f" ({quarantined} quarantined)" if quarantined else ""
            self.progress(f"resume: {len(done)} of {len(specs)} runs already "
                          f"complete{note}, skipping")

        self._prepare_journal(todo, recorded)
        if todo:
            done.update(BACKENDS[self.backend](todo, self))
        self._fold_shards()
        return [done[spec.spec_hash] for spec in specs]

    # ------------------------------------------------------------------
    def _prepare_journal(self, todo: List[RunSpec],
                         recorded: Dict[str, RunRecord]) -> None:
        """Recover journal state and queue this session's cells.

        An entry whose cell already has a record is retired (its session
        died between the commit and the retirement), stale leases (a
        killed coordinator or expired worker) flow back to pending, and
        the cells in ``todo`` are queued.
        """
        from repro.experiments.journal import STATES, AttemptJournal

        self.journal = journal = AttemptJournal.for_store(self.store.path)
        journal.ensure_dirs()
        for state in STATES:
            for h in journal.hashes(state):
                if h in recorded:
                    journal.complete(h, recorded[h].failure)
        # serial/pool coordinators own every lease in the journal; a
        # lease found on entry is from a dead session, whatever its age.
        # filequeue shares the journal with live peers, so only TTL-
        # expired leases are reaped (workers re-reap continuously).
        reaped = journal.requeue_expired(
            0.0 if self.backend != "filequeue" else self.lease_ttl)
        if reaped:
            self.progress(f"recovered {len(reaped)} in-flight cell(s) "
                          "from expired leases; re-queued")
        journal.seed(todo)

    def _fold_shards(self) -> None:
        """Merge every worker shard into the store, saying what came in."""
        merged = self.store.merge_shards()
        if merged["shards"]:
            self.progress(
                f"merged {merged['merged']} records from "
                f"{merged['shards']} worker shard(s)"
                + (f", {merged['torn_lines']} torn line(s) sealed"
                   if merged["torn_lines"] else ""))

    # ------------------------------------------------------------------
    def _finish(self, record: RunRecord, index: int, total: int,
                *, persist: bool = True) -> None:
        """Count and report a settled cell; with ``persist``, commit its
        record and then retire its lease, before the progress line (which
        may raise KeyboardInterrupt)."""
        self.executed += 1
        if record.failed:
            self.quarantined += 1
        self._finished_records.append(record)
        if persist:
            self.store.append(record)
            self.journal.complete(record.spec_hash, record.failure)
        if record.failed:
            state = "QUARANTINED"
        elif record.crashed:
            state = "CRASH"
        else:
            state = "ok" if record.completed else "cut off"
        spec = record.spec
        extras = ""
        if spec.clb_bytes is not None:
            extras += f" clb={spec.clb_bytes // 1024}k"
        if spec.interval is not None:
            extras += f" interval={spec.interval}"
        if not spec.safetynet:
            extras += " unprotected"
        self.progress(
            f"[{index}/{total}] {spec.workload} seed={spec.seed} "
            f"fault={spec.fault}{extras} -> {state} "
            f"({record.cycles:,} cycles, {record.elapsed_s:.1f}s)"
        )

    def _heartbeat(self, pending, *, done: int, total: int) -> None:
        """One liveness line while nothing has finished for a while.

        Names the cells still executing (bounded to three plus a count)
        and reports the campaign's mean simulation throughput from the
        records already in hand, so a stalled sweep is distinguishable
        from a slow one.
        """
        elapsed = time.perf_counter() - self._campaign_started
        in_flight = sorted(
            (entry[0] if isinstance(entry, tuple) else entry).label()
            for entry in pending.values())
        shown = ", ".join(in_flight[:3])
        if len(in_flight) > 3:
            shown += f", +{len(in_flight) - 3} more"
        agg = aggregate_telemetry(self._finished_records)
        rate = agg.get("mean_sim_cycles_per_second", 0.0)
        rate_txt = f", {rate:,.0f} sim-cycles/s/run" if rate else ""
        self.progress(
            f"heartbeat: {done}/{total} done, {len(pending)} in flight "
            f"({shown}), {elapsed:.0f}s elapsed{rate_txt}")
