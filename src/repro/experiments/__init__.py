"""``repro.experiments`` — parallel, resumable campaign engine.

Every figure in the paper is a cross-product of workloads, fault models,
CLB sizes, checkpoint intervals, and seed replicates.  This package
turns "run that cross-product" into a declarative, restartable job
instead of a hand-rolled loop:

* :mod:`~repro.experiments.spec` — :class:`RunSpec` (one hashable run)
  and :class:`Sweep` (grid expansion);
* :mod:`~repro.experiments.runner` — :func:`execute_run` (spec ->
  :class:`RunRecord`) and :class:`Runner` (campaign orchestration:
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

The names from :mod:`~repro.experiments.backends` and
:mod:`~repro.experiments.journal` resolve on first use (a module
``__getattr__``), so ``from repro.experiments import RunSpec,
build_machine`` loads no multi-process fabric: no ``multiprocessing``,
``concurrent.futures`` or ``socket``.  Every other name is imported
eagerly.  ``aggregate`` must be: the function shares its name with the
:mod:`~repro.experiments.aggregate` submodule, and importing that
submodule on a lazy lookup would rebind the package attribute
``aggregate`` to the module.
"""

import importlib

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
)
from repro.experiments.spec import RunSpec, Sweep
from repro.experiments.store import ResultStore, list_shards, shard_path

#: The names that resolve on first use (see above), each mapped to the
#: submodule that defines it.
_LAZY = {
    "BACKEND_NAMES": "backends",
    "BACKENDS": "backends",
    "CellCrashed": "backends",
    "CellError": "backends",
    "CellFailure": "backends",
    "CellTimeout": "backends",
    "resolve_backend": "backends",
    "run_cell_guarded": "backends",
    "run_worker": "backends",
    "AttemptJournal": "journal",
    "default_worker_id": "journal",
    "journal_path": "journal",
}


def __getattr__(name):
    submodule = _LAZY.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value


__all__ = [
    "AttemptJournal",
    "BACKEND_NAMES",
    "BACKENDS",
    "CHAOS_ENV",
    "CellCrashed",
    "CellError",
    "CellFailure",
    "CellTimeout",
    "ChaosConfig",
    "default_worker_id",
    "journal_path",
    "list_shards",
    "resolve_backend",
    "run_cell_guarded",
    "run_worker",
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
    "ResultStore",
    "CellSummary",
    "MetricSummary",
    "aggregate",
    "summarize",
    "summary_rows",
    "t_critical_95",
    "varied_keys",
]
