"""``repro.experiments`` — parallel, resumable campaign engine.

Every figure in the paper is a cross-product of workloads, fault models,
CLB sizes, checkpoint intervals, and seed replicates.  This package
turns "run that cross-product" into a declarative, restartable job
instead of a hand-rolled loop:

* :mod:`~repro.experiments.spec` — :class:`RunSpec` (one hashable run)
  and :class:`Sweep` (grid expansion);
* :mod:`~repro.experiments.runner` — :func:`record_run` (a spec's built
  machine -> :class:`RunRecord`, for every run), :func:`execute_run`
  (spec -> record) and :class:`Runner` (campaign orchestration:
  resume, retries, quarantine);
* :mod:`~repro.experiments.backends` — the executor backends
  (``serial`` / ``pool`` / ``filequeue``: placement only) and the one
  retry/quarantine rule they share, plus the guarded-cell harness
  (:func:`run_cell_guarded`) and the elastic :func:`run_worker` loop;
* :mod:`~repro.experiments.journal` — :class:`AttemptJournal`, the
  durable per-cell lease/attempt state that makes crashed campaigns
  recoverable with exactly-once completion;
* :mod:`~repro.experiments.chaos` — :class:`ChaosConfig` fault
  injection (worker kills, heartbeat stalls, torn store writes) for
  rehearsing every recovery path, driven by the ``REPRO_CHAOS`` env;
* :mod:`~repro.experiments.store` — :class:`ResultStore`, an append-only
  JSONL journal keyed by spec hash that makes campaigns resumable and
  serves as the fabric's exactly-once commit point (worker shards merge
  into it by spec hash);
* :mod:`~repro.experiments.manifest` — :class:`CampaignManifest`, the
  ``<store>.manifest.json`` record of every campaign's expanded grid and
  hashes (store auditing: orphan records, pending runs);
* :mod:`~repro.experiments.aggregate` — per-cell means / spreads /
  confidence intervals across seed replicates, rendered as tables by
  ``repro.analysis.format_table``.

Quick start::

    from repro.experiments import ResultStore, Runner, RunSpec, Sweep, aggregate

    sweep = Sweep(base=RunSpec(instructions=8_000),
                  grid={"workload": ["apache", "jbb"],
                        "clb_kb": [128, 256, 512]},
                  seeds=3)
    runner = Runner(jobs=4, store=ResultStore("results.jsonl"))
    records = runner.run(sweep.expand())    # re-entrant: finished runs skipped
    for cell in aggregate(records):
        print(cell.label(["workload", "clb_bytes"]), cell.metrics["cycles"].render())

Or from the command line::

    python -m repro sweep --grid workload=apache,jbb --grid clb_kb=128,256,512 \\
        --seeds 3 --jobs 4 --out results.jsonl

The package loads neither ``backends`` nor ``journal`` (import their
names from them), so one machine built through it loads no fabric.
"""

from repro.experiments.chaos import CHAOS_ENV, ChaosConfig
from repro.experiments.aggregate import (
    CellSummary,
    MetricSummary,
    aggregate,
    summarize,
    summary_rows,
    t_critical_95,
    varied_keys,
)
from repro.experiments.manifest import (
    CampaignEntry,
    CampaignManifest,
    manifest_path,
)
from repro.experiments.runner import (
    RunRecord,
    Runner,
    aggregate_telemetry,
    build_machine,
    execute_run,
    record_run,
)
from repro.experiments.spec import RunSpec, Sweep
from repro.experiments.store import ResultStore, list_shards, shard_path

__all__ = [
    "CHAOS_ENV",
    "ChaosConfig",
    "list_shards",
    "shard_path",
    "CampaignEntry",
    "CampaignManifest",
    "manifest_path",
    "RunSpec",
    "Sweep",
    "RunRecord",
    "Runner",
    "aggregate_telemetry",
    "build_machine",
    "execute_run",
    "record_run",
    "ResultStore",
    "CellSummary",
    "MetricSummary",
    "aggregate",
    "summarize",
    "summary_rows",
    "t_critical_95",
    "varied_keys",
]
