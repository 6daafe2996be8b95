"""Command-line interface: run SafetyNet experiments without writing code.

Usage (installed as ``python -m repro`` or the ``repro`` console script):

    python -m repro run --workload oltp --instructions 20000
    python -m repro run --workload apache --fault transient --period 60000
    python -m repro run --workload jbb --fault switch --unprotected
    python -m repro sweep --grid workload=apache,oltp --grid clb_kb=16,32 \\
        --seeds 3 --jobs 4 --out results.jsonl    # parallel, resumable
    python -m repro sweep --grid torus=2x2,4x4,4x8 --grid workload=apache,jbb \\
        --seeds 3 --out shapes.jsonl              # machine-shape campaign
    python -m repro sweep --status --out results.jsonl   # campaign progress
    python -m repro sweep --gc --out results.jsonl       # drop unmanifested
    python -m repro sweep --backend filequeue --jobs 2 --retries 3 \\
        --cell-timeout 300 --out results.jsonl    # fault-tolerant fabric
    python -m repro worker --store results.jsonl  # join as elastic worker
    python -m repro run --workload oltp --torus 4x8      # one 32-node run
    python -m repro profile --workload jbb    # where do dispatches/time go?
    python -m repro trace --fault transient --out trace.json \\
        --series series.csv                   # what happened, cycle by cycle?
    python -m repro character                 # Table 3 workload summary
    python -m repro config [--paper]          # Table 2 parameters

``sweep --out`` also records the campaign definition (expanded grid,
shapes, spec hashes) in ``<store>.manifest.json`` next to the store;
``--status`` audits the store against it (pending runs, unmanifested
records).

``run``, ``trace`` and ``profile`` print from the record that
:func:`~repro.experiments.runner.record_run` makes, as for a campaign cell.

Exit code 0 means the run completed (or, with --unprotected and a fault,
crashed as expected); 1 flags an unexpected outcome.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis import format_table
from repro.coherence.protocol import PROTOCOL_NAMES
from repro.config import SystemConfig, parse_shape
from repro.interconnect.arbiter import ARBITER_NAMES
from repro.experiments import (
    CampaignManifest,
    ResultStore,
    Runner,
    RunSpec,
    Sweep,
    aggregate,
    aggregate_telemetry,
    build_machine,
    list_shards,
    record_run,
    summary_rows,
    varied_keys,
)
from repro.experiments.spec import FAULT_KINDS
from repro.obs import fabric_summary, load_fabric_events
from repro.workloads import WORKLOAD_NAMES, by_name, workload_character


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SafetyNet (ISCA 2002) reproduction: run the simulated "
                    "multiprocessor with or without checkpoint/recovery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_experiment_args(p, *, instructions, warmup, period):
        """Flags shared by `run` and `sweep` (both feed _spec_from_args).

        Declared through a helper rather than a parents= parser: argparse
        parents share action objects, so per-subcommand defaults on one
        subparser would leak into the other.
        """
        p.add_argument("--workload", choices=WORKLOAD_NAMES, default="apache")
        p.add_argument("--instructions", type=int, default=instructions,
                       help="instructions per CPU (measured phase)")
        p.add_argument("--warmup", type=int, default=warmup,
                       help="warmup instructions per CPU (0 = none)")
        p.add_argument("--scale", type=int, default=16,
                       help="divide the paper's sizes by this factor")
        p.add_argument("--torus", default=None, metavar="WxH",
                       help="machine shape, e.g. 2x2, 4x8, 8x8 "
                            "(default: the preset's own 4x4)")
        p.add_argument("--protocol", choices=PROTOCOL_NAMES, default=None,
                       help="coherence protocol (default: mosi); also a "
                            "sweep axis, --grid protocol=mosi,mesi,moesi")
        p.add_argument("--arbiter", choices=ARBITER_NAMES, default=None,
                       help="network arbitration policy (default: fifo); "
                            "also a sweep axis, --grid arbiter=fifo,wrr")
        p.add_argument("--fault", choices=FAULT_KINDS, default="none")
        p.add_argument("--period", type=int, default=period,
                       help="cycles between transient faults")
        p.add_argument("--fault-at", type=int, default=None,
                       help="cycle of the first/only fault")
        p.add_argument("--unprotected", action="store_true",
                       help="disable SafetyNet (the paper's baseline)")
        p.add_argument("--interval", type=int, default=None,
                       help="override the checkpoint interval (cycles)")
        p.add_argument("--clb-kb", type=int, default=None,
                       help="override CLB size (kB per controller)")
        p.add_argument("--max-cycles", type=int, default=30_000_000)

    run = sub.add_parser("run", help="run one experiment")
    add_experiment_args(run, instructions=15_000, warmup=5_000, period=60_000)
    run.add_argument("--seed", type=int, default=1)

    sweep = sub.add_parser(
        "sweep",
        help="run a parameter-grid campaign (parallel, resumable)",
        description="Expand --grid axes x --seeds into a run campaign, "
                    "execute it with --jobs worker processes, and append "
                    "each result to --out (JSONL).  Re-running with the "
                    "same --out skips completed runs.")
    add_experiment_args(sweep, instructions=8_000, warmup=0, period=None)
    sweep.add_argument("--grid", action="append", default=[],
                       metavar="FIELD=V1,V2,...",
                       help="one sweep axis, e.g. workload=apache,oltp or "
                            "clb_kb=128,256,512 (repeatable)")
    sweep.add_argument("--seeds", type=int, default=1,
                       help="seed replicates per cell (seeds 1..N)")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = in-process serial)")
    sweep.add_argument("--out", default=None,
                       help="JSONL result store; enables resume (default: "
                            "a private temporary store)")
    sweep.add_argument("--status", action="store_true",
                       help="inspect the --out store (completed/pending "
                            "counts, sweep axes, manifest coverage incl. "
                            "unmanifested records) without running anything")
    sweep.add_argument("--metric", default="cycles",
                       choices=["cycles", "work_rate", "recoveries",
                                "lost_instructions",
                                "committed_instructions"],
                       help="metric summarised in the final table")

    sweep.add_argument("--gc", action="store_true",
                       help="compact the --out store: drop records no "
                            "manifest campaign accounts for (reports what "
                            "was dropped; runs nothing)")
    sweep.add_argument("--backend", default="auto",
                       help="executor backend: auto (pool if --jobs > 1), "
                            "serial, pool, or filequeue (lease-file "
                            "coordination; supports external 'repro "
                            "worker' processes)")
    sweep.add_argument("--retries", type=int, default=2,
                       help="re-attempts per cell before quarantining it "
                            "as a failed record (0 = fail fast)")
    sweep.add_argument("--cell-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-clock budget per cell; a cell past it "
                            "is killed and retried/quarantined")
    sweep.add_argument("--lease-ttl", type=float, default=60.0,
                       metavar="SECONDS",
                       help="heartbeat age after which a cell lease is "
                            "considered abandoned and requeued")
    sweep.add_argument("--retry-failed", action="store_true",
                       help="re-attempt cells the store already holds as "
                            "quarantined failures")

    worker = sub.add_parser(
        "worker",
        help="join a filequeue campaign as an elastic worker",
        description="Claim and execute cells from an existing campaign's "
                    "attempt journal (created by 'repro sweep --backend "
                    "filequeue --out STORE').  Results land in a private "
                    "shard next to the store; the coordinating sweep, or "
                    "the next sweep on any backend, merges shards in.  "
                    "Start and stop any number of workers at any time — "
                    "abandoned leases expire and are re-claimed.")
    worker.add_argument("--store", required=True,
                        help="the campaign's JSONL store (its .journal "
                             "directory must exist)")
    worker.add_argument("--worker-id", default=None,
                        help="stable identity for leases and the result "
                             "shard (default: <host>-<pid>)")
    worker.add_argument("--retries", type=int, default=2)
    worker.add_argument("--cell-timeout", type=float, default=None,
                        metavar="SECONDS")
    worker.add_argument("--lease-ttl", type=float, default=60.0,
                        metavar="SECONDS")
    worker.add_argument("--max-cells", type=int, default=None,
                        help="exit after executing this many cells")

    prof = sub.add_parser(
        "profile",
        help="profile one run (kernel event histogram + cProfile)",
        description="Run one experiment under the profiling harness: a "
                    "per-event-label dispatch/exclusive-time histogram "
                    "from the kernel, plus (by default) cProfile function "
                    "hot spots.  Prints tables; --json emits the full "
                    "report for tooling.")
    add_experiment_args(prof, instructions=8_000, warmup=0, period=60_000)
    prof.add_argument("--seed", type=int, default=1)
    prof.add_argument("--top", type=int, default=12,
                      help="rows per table (labels and functions)")
    prof.add_argument("--no-cprofile", action="store_true",
                      help="skip cProfile (≈2x faster; label histogram only)")
    prof.add_argument("--json", default=None, metavar="PATH",
                      help="write the full report as JSON ('-' = stdout)")

    trace = sub.add_parser(
        "trace",
        help="run one experiment with structured tracing (Chrome trace, "
             "time series, availability timeline)",
        description="Run one experiment with the repro.obs tracer attached "
                    "and export what happened: --out writes Chrome-trace "
                    "JSON (open in Perfetto / chrome://tracing), --series "
                    "samples occupancy counters on a fixed cadence "
                    "(CSV or JSON by extension), and the availability "
                    "timeline summarises checkpoint validation and "
                    "recovery spans per epoch.")
    add_experiment_args(trace, instructions=8_000, warmup=0, period=60_000)
    trace.add_argument("--seed", type=int, default=1)
    trace.add_argument("--out", default=None, metavar="PATH",
                       help="write Chrome-trace JSON ('-' = stdout)")
    trace.add_argument("--series", default=None, metavar="PATH",
                       help="write the sampled time series ('-' = stdout "
                            "CSV; .json extension selects JSON)")
    trace.add_argument("--cadence", type=int, default=None,
                       help="cycles between samples (default: the "
                            "checkpoint interval)")
    trace.add_argument("--timeline", action="store_true",
                       help="print the full per-epoch availability table, "
                            "not just the summary")

    sub.add_parser("character", help="print Table 3 workload character")

    config = sub.add_parser("config", help="print Table 2 parameters")
    config.add_argument("--paper", action="store_true",
                        help="full-scale paper parameters instead of scaled")
    config.add_argument("--scale", type=int, default=16)
    return parser


def _spec_from_args(args, *, seed: Optional[int] = None) -> RunSpec:
    """Map the shared run/sweep flags onto a RunSpec."""
    shape = parse_shape(args.torus) if args.torus else (None, None)
    return RunSpec(
        workload=args.workload,
        instructions=args.instructions,
        warmup=args.warmup,
        seed=seed if seed is not None else getattr(args, "seed", 1),
        scale=args.scale,
        torus_width=shape[0],
        torus_height=shape[1],
        safetynet=not args.unprotected,
        interval=args.interval,
        clb_bytes=args.clb_kb * 1024 if args.clb_kb is not None else None,
        protocol=args.protocol,
        arbiter=args.arbiter,
        fault=args.fault,
        fault_period=args.period,
        fault_at=args.fault_at,
        max_cycles=args.max_cycles,
    )


def _spec_and_machine(args, out):
    """The flags' spec and its machine, or None after ``bad run``."""
    try:
        spec = _spec_from_args(args)
        return spec, build_machine(spec)
    except ValueError as exc:
        print(f"bad run: {exc}", file=out)
        return None


def cmd_run(args, out) -> int:
    built = _spec_and_machine(args, out)
    if built is None:
        return 1
    spec, machine = built
    record = record_run(spec, machine)

    if record.crashed:
        print(f"CRASH: {record.crash_reason}", file=out)
        # An unprotected machine crashing under a fault is the expected
        # baseline outcome, not a tool failure.
        return 0 if (args.unprotected and args.fault != "none") else 1

    rows = [
        ("workload", args.workload),
        ("completed", record.completed),
        ("cycles", f"{record.cycles:,}"),
        ("committed instructions", f"{record.committed_instructions:,}"),
        ("system IPC", f"{record.work_rate:.3f}" if record.cycles else "-"),
        ("recoveries", record.recoveries),
        ("instructions re-executed", f"{record.lost_instructions:,}"),
        ("recovery point (RPCN)", machine.controllers.rpcn),
        ("peak cache-CLB entries", record.metrics["peak_cache_clb_entries"]),
        ("peak home-CLB entries", record.metrics["peak_home_clb_entries"]),
    ]
    if machine.recovery.stats.reconfigurations:
        rows.append(("rerouted around", str(machine.topology.dead_switches)))
    print(format_table(["metric", "value"], rows,
                       title=f"SafetyNet run ({'unprotected' if args.unprotected else 'protected'}, "
                             f"fault={args.fault})"), file=out)
    machine.check_coherence_invariants()
    return 0 if record.completed else 1


def _parse_grid_value(raw: str):
    text = raw.strip()
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered == "null":      # "none" stays a string (it is a fault kind)
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _parse_grid(args_grid: List[str]) -> dict:
    grid = {}
    for item in args_grid:
        if "=" not in item:
            raise SystemExit(f"--grid expects FIELD=V1,V2,... got {item!r}")
        key, _, values = item.partition("=")
        key = key.strip()
        parsed = [_parse_grid_value(v) for v in values.split(",") if v.strip()]
        if not parsed:
            raise SystemExit(f"--grid {key}= has no values")
        grid[key] = parsed
    return grid


def cmd_sweep_status(args, out) -> int:
    """Read-only campaign inspection: what is in the store, what remains.

    With ``--grid`` axes the current campaign definition is expanded and
    compared against the store (completed/pending runs and cells);
    without, the store's own contents are summarised.
    """
    if not args.out:
        print("sweep --status needs --out (the campaign's JSONL store)",
              file=out)
        return 1
    from repro.experiments.journal import AttemptJournal

    store = ResultStore(args.out)
    recorded = store.with_shards()
    records = list(recorded.values())
    cells = aggregate(records)
    axes = varied_keys(cells)
    rows = [
        ("store", args.out),
        ("completed runs", len(records)),
        ("completed cells", len(cells)),
        ("malformed lines", store.malformed_lines),
        ("sweep axes", ", ".join(axes) if axes else "-"),
    ]
    telemetry = aggregate_telemetry(records)
    if telemetry.get("runs_with_telemetry"):
        rows += [
            ("compute spent",
             f"{telemetry['total_wall_seconds']:,.1f}s wall over "
             f"{telemetry['runs_with_telemetry']} runs"),
            ("kernel events",
             f"{telemetry['total_events_dispatched']:,.0f} dispatched"),
            ("mean throughput",
             f"{telemetry['mean_sim_cycles_per_second']:,.0f} sim-cycles/s, "
             f"{telemetry['mean_events_per_second']:,.0f} events/s"),
            ("peak CLB entries", f"{telemetry['peak_clb_entries']:,.0f}"),
            ("peak pending events",
             f"{telemetry['peak_pending_events']:,.0f}"),
        ]
    manifest = CampaignManifest.load(args.out)
    if manifest is None:
        rows.append(("manifest", "absent (written by the next sweep run)"))
    else:
        orphans = manifest.orphan_records(records)
        orphan_cells = {
            r.spec.cell_hash for r in orphans
        } - manifest.cell_hashes()
        pending = manifest.missing_hashes(recorded)
        protocols = sorted({p for c in manifest.campaigns
                            for p in c.protocols})
        arbiters = sorted({a for c in manifest.campaigns
                           for a in c.arbiters})
        rows += [
            ("manifest", manifest.path),
            ("manifest campaigns", len(manifest.campaigns)),
            ("manifest runs", f"{len(manifest.spec_hashes())} "
                              f"({len(pending)} pending)"),
        ]
        if protocols:
            rows.append(("manifest protocols", ", ".join(protocols)))
        if arbiters:
            rows.append(("manifest arbiters", ", ".join(arbiters)))
        rows += [
            # Records no recorded campaign accounts for: candidates for
            # store garbage collection (ROADMAP store-lifecycle item).
            ("unmanifested runs", len(orphans)),
            ("unmanifested cells", len(orphan_cells)),
        ]
    journal = AttemptJournal.for_store(args.out)
    lease_rows = []
    if journal.exists():
        counts = journal.counts()
        rows.append(("journal",
                     f"{counts['pending']} pending, {counts['leased']} "
                     "leased"))
        summary = fabric_summary(load_fabric_events(args.out))
        if summary["events"]:
            rows.append(
                ("fabric events",
                 f"{summary['claims']} claims, {summary['completes']} "
                 f"completes, {summary['fails']} fails, "
                 f"{summary['requeues']} requeues, "
                 f"{summary['quarantines']} quarantines"))
            if summary["workers"]:
                rows.append(("workers seen",
                             f"{len(summary['workers'])} "
                             f"({', '.join(summary['workers'][:4])}"
                             + (", ..." if len(summary["workers"]) > 4
                                else "") + ")"))
            if summary["chaos_events"]:
                rows.append(("chaos injections", summary["chaos_events"]))
            if summary["max_attempts"] > 1:
                rows.append(
                    ("worst retry pressure",
                     f"{summary['max_attempts']} attempts on "
                     f"{summary['max_attempts_hash']}"))
        for entry in journal.entries("leased"):
            lease_rows.append(
                f"  leased {entry.get('spec_hash', '?')} by "
                f"{entry.get('worker', '?')}: attempt "
                f"{entry.get('attempts', '?')}, heartbeat "
                f"{entry.get('heartbeat_age_s', 0.0):.1f}s ago")
    quarantined = [r for r in records if r.failed]
    if quarantined:
        rows.append(("quarantined records",
                     f"{len(quarantined)} (re-attempt with --retry-failed)"))
    shards = list_shards(args.out)
    if shards:
        rows.append(("unmerged shards",
                     f"{len(shards)} (merged by the next sweep run)"))
    for key in axes:
        values = {c.cell.get(key) for c in cells}
        # Absent optional fields (e.g. shape axes on pre-shape records)
        # mean "the preset's default", not a value called None.
        has_default = None in values
        values.discard(None)
        ordered = sorted(values, key=lambda v: (isinstance(v, str), v))
        labels = (["default"] if has_default else []) + \
            [str(v) for v in ordered]
        rows.append((f"  {key} values", ", ".join(labels)))
    grid = _parse_grid(args.grid)
    if grid:
        try:
            specs = Sweep(base=_spec_from_args(args), grid=grid,
                          seeds=args.seeds).expand()
        except (ValueError, TypeError) as exc:
            print(f"bad sweep: {exc}", file=out)
            return 1
        by_cell: dict = {}
        for spec in specs:
            by_cell.setdefault(spec.cell_hash, []).append(spec)
        done_cells = sum(
            1 for specs_in_cell in by_cell.values()
            if all(s.spec_hash in recorded for s in specs_in_cell))
        done_runs = sum(1 for s in specs if s.spec_hash in recorded)
        rows += [
            ("campaign axes", ", ".join(grid)),
            ("campaign runs", f"{done_runs}/{len(specs)} complete, "
                              f"{len(specs) - done_runs} pending"),
            ("campaign cells", f"{done_cells}/{len(by_cell)} complete, "
                               f"{len(by_cell) - done_cells} pending"),
        ]
    print(format_table(["field", "value"], rows,
                       title="campaign status"), file=out)
    for line in lease_rows:
        print(line, file=out)
    for record in quarantined:
        failure = record.failure or {}
        print(f"  quarantined {record.spec_hash}: "
              f"{failure.get('error', '?')} after "
              f"{failure.get('attempts', '?')} attempt(s)", file=out)
    return 0


def cmd_sweep_gc(args, out) -> int:
    """Store garbage collection: drop records no manifest accounts for.

    A store accumulates records from every campaign ever pointed at it;
    once a campaign's definition is retired (its manifest entry gone or
    rewritten), its records are dead weight.  ``--gc`` keeps exactly the
    union of every recorded campaign's spec hashes and compacts the JSONL
    in place (atomically), reporting what it dropped.
    """
    if not args.out:
        print("sweep --gc needs --out (the campaign's JSONL store)", file=out)
        return 1
    store = ResultStore(args.out)
    manifest = CampaignManifest.load(args.out)
    if manifest is None or not manifest.campaigns:
        # Without a manifest *everything* is unaccounted for; refusing is
        # the only safe reading (run a sweep with --out first).
        print(f"no manifest next to {args.out}; refusing to GC — every "
              "record would be dropped.  Run a sweep with --out to record "
              "its campaign first.", file=out)
        return 1
    before = len(store)
    torn = store.malformed_lines
    dropped = store.compact(manifest.spec_hashes())
    rows = [
        ("store", args.out),
        ("manifest campaigns", len(manifest.campaigns)),
        ("records kept", before - len(dropped)),
        ("records dropped", len(dropped)),
        ("torn/malformed lines purged", torn),
    ]
    print(format_table(["field", "value"], rows, title="store GC"), file=out)
    for record in dropped[:20]:
        spec = record.spec
        print(f"  dropped {record.spec_hash}: {spec.workload} "
              f"seed={spec.seed} fault={spec.fault}", file=out)
    if len(dropped) > 20:
        print(f"  ... and {len(dropped) - 20} more", file=out)
    return 0


def cmd_sweep(args, out) -> int:
    if args.gc:
        return cmd_sweep_gc(args, out)
    if args.status:
        return cmd_sweep_status(args, out)
    grid = _parse_grid(args.grid)
    try:
        sweep = Sweep(base=_spec_from_args(args), grid=grid, seeds=args.seeds)
        specs = sweep.expand()
        store = ResultStore(args.out) if args.out else None
        # The Runner checks jobs, retries, cell timeout and lease TTL:
        # build it before anything is written next to the store.
        runner = Runner(jobs=args.jobs, store=store,
                        progress=lambda line: print(line, file=out),
                        backend=args.backend, retries=args.retries,
                        cell_timeout=args.cell_timeout,
                        lease_ttl=args.lease_ttl,
                        retry_failed=args.retry_failed)
    except (ValueError, TypeError) as exc:
        print(f"bad sweep: {exc}", file=out)
        return 1
    print(f"campaign: {sweep.cells()} cells x {len(sweep.seed_list())} seeds "
          f"= {len(specs)} runs, jobs={args.jobs}, backend={args.backend}"
          + (f", store={args.out}" if args.out else ""), file=out)
    if store is not None:
        # Record the campaign definition next to the store before running:
        # an interrupted sweep still leaves an auditable manifest.
        CampaignManifest.record(args.out, sweep, fabric={
            "backend": args.backend,
            "retries": args.retries,
            "cell_timeout": args.cell_timeout,
            "lease_ttl": args.lease_ttl,
            "jobs": args.jobs,
        })
    try:
        records = runner.run(specs)
    except KeyboardInterrupt:
        # Leases were released and partial results flushed on the way
        # out; the campaign is checkpointed, not lost.
        print("\ninterrupted — partial results are safe.", file=out)
        if args.out:
            print(f"resume with: repro sweep ... --out {args.out} "
                  f"(completed cells are skipped)", file=out)
        return 130
    print(f"executed {runner.executed} runs, reused {runner.skipped} from "
          "the store" if store else f"executed {runner.executed} runs",
          file=out)
    quarantined = [r for r in records if r.failed]
    if quarantined:
        print(f"{len(quarantined)} cell(s) quarantined after exhausting "
              "retries:", file=out)
        for record in quarantined[:10]:
            failure = record.failure or {}
            print(f"  {record.spec_hash} {record.spec.label()}: "
                  f"{failure.get('error', '?')} "
                  f"({failure.get('attempts', '?')} attempts)", file=out)
        if len(quarantined) > 10:
            print(f"  ... and {len(quarantined) - 10} more", file=out)
    header, rows = summary_rows(aggregate(records), metric=args.metric)
    print(format_table(header, rows,
                       title=f"sweep summary ({args.metric})"), file=out)
    unexpected = sum(1 for r in records if r.crashed and r.spec.safetynet)
    if unexpected:
        print(f"{unexpected} protected runs crashed", file=out)
        return 1
    return 1 if quarantined else 0


def cmd_worker(args, out) -> int:
    """Elastic worker: drain a filequeue campaign's attempt journal."""
    from repro.experiments.backends import run_worker
    from repro.experiments.journal import AttemptJournal

    journal = AttemptJournal.for_store(args.store)
    if not journal.exists():
        print(f"no attempt journal at {journal.root}; start the campaign "
              "first with: repro sweep --backend filequeue --out "
              f"{args.store} ...", file=out)
        return 1
    try:
        executed = run_worker(
            args.store,
            worker_id=args.worker_id,
            lease_ttl=args.lease_ttl,
            cell_timeout=args.cell_timeout,
            retries=args.retries,
            max_cells=args.max_cells,
            progress=lambda line: print(line, file=out),
        )
    except ValueError as exc:
        # run_worker checks its settings before it touches the journal.
        print(f"bad worker: {exc}", file=out)
        return 1
    except KeyboardInterrupt:
        print("\nworker interrupted — lease released; the cell will be "
              "re-claimed.", file=out)
        return 130
    print(f"worker done: {executed} cell(s) executed, journal "
          f"{journal.counts()}", file=out)
    return 0


def cmd_profile(args, out) -> int:
    """Run one spec under the profiling harness and print/emit the report.

    This is the measurement behind the hot-path PRs: the event-label
    histogram says which *subsystem* burns dispatches (e.g. the ~7% of
    dead ``cache.timeout`` events that motivated the deadline tables),
    cProfile says which *functions* burn wall-clock inside them.
    """
    from repro.sim.profile import profile_spec

    try:
        if args.top < 1:
            raise ValueError(f"top must be >= 1, got {args.top}")
        spec = _spec_from_args(args)
        report = profile_spec(spec, use_cprofile=not args.no_cprofile,
                              top_functions=args.top)
    except ValueError as exc:
        # Bad shape/workload/override: a diagnostic and exit 1, never a
        # traceback (the spec is built *inside* the try on purpose).
        print(f"bad run: {exc}", file=out)
        return 1
    record = report.record

    if args.json == "-":
        # Machine mode: the report is the whole stdout, so that
        # `repro profile --json - | python -m json.tool` can parse it.
        print(report.to_json(), file=out)
        return 0 if not record.crashed else 1

    label_rows = [
        (r["label"], f"{r['dispatches']:,}", f"{r['dispatch_frac']:6.1%}",
         f"{r['seconds']:.3f}", f"{r['seconds_frac']:6.1%}")
        for r in report.dispatch.rows(args.top)
    ]
    print(format_table(
        ["event label", "dispatches", "disp %", "excl s", "time %"],
        label_rows,
        title=f"kernel dispatch profile ("
              f"{record.telemetry['events_dispatched']:,} events, "
              f"{record.elapsed_s:.2f}s wall)"), file=out)
    if report.functions:
        fn_rows = [
            (f["function"], f"{f['calls']:,}", f"{f['exclusive_s']:.3f}",
             f"{f['cumulative_s']:.3f}")
            for f in report.functions
        ]
        print(format_table(
            ["function", "calls", "excl s", "cum s"], fn_rows,
            title="cProfile hot functions"), file=out)
    net = report.network
    if net:
        print(f"network: {net['hop_dispatches'] + net['express_dispatches']:,}"
              f" hop dispatches advanced "
              f"{net['hop_dispatches'] + net['express_hops']:,} hops "
              f"({net['hops_per_dispatch']:.2f} hops/dispatch, "
              f"{net['express_hop_fraction']:.1%} express, "
              f"{net['express_interrupts']:,} interrupts)", file=out)
    coh = report.coherence
    if coh:
        print(f"coherence: {coh['protocol']} filled {coh['fill_e']:,} "
              f"blocks E, {coh['silent_upgrades']:,} silent upgrades "
              f"({coh['silent_upgrade_fraction']:.1%} of store upgrades), "
              f"{coh['writebacks_avoided']:,} writebacks avoided, "
              f"{coh['downgrades']:,} owner downgrades", file=out)
    collector = report.gc
    print(f"collector: {sum(collector['collections']):,} collections "
          f"(by generation {'/'.join(map(str, collector['collections']))}),"
          f" {collector['seconds']:.3f}s, "
          f"{collector['reclaimed']:,} objects reclaimed", file=out)
    summary = (f"cycles={record.cycles:,} committed="
               f"{record.committed_instructions:,} "
               f"recoveries={record.recoveries} completed={record.completed} "
               f"peak_pending={record.telemetry['peak_pending_events']:,}")
    print(summary, file=out)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
        print(f"report written to {args.json}", file=out)
    return 0 if not record.crashed else 1


def cmd_trace(args, out) -> int:
    """Run one spec with the observability layer attached and export it.

    The tracer journals the SafetyNet lifecycle (checkpoint edges,
    validation, faults, recoveries); the sampler captures occupancy
    series at a fixed cadence.  Stdout gets the availability summary and
    record counts — or, with ``--out -`` / ``--series -``, the raw
    export itself for piping.
    """
    import json as _json

    from repro.obs import (
        Sampler,
        TraceLog,
        availability_timeline,
        chrome_trace,
        counts_table,
        recovery_episodes,
        timeline_summary,
    )

    built = _spec_and_machine(args, out)
    if built is None:
        return 1
    spec, machine = built
    trace = TraceLog()
    machine.attach_tracer(trace)
    sampler = None
    if args.series:
        cadence = args.cadence or machine.config.checkpoint_interval
        try:
            sampler = Sampler(machine, cadence)
        except ValueError as exc:
            print(f"bad run: {exc}", file=out)
            return 1
        sampler.start()
    record = record_run(spec, machine)
    if sampler is not None:
        sampler.stop()

    num_nodes = len(machine.nodes)
    raw_to_stdout = args.out == "-" or args.series == "-"
    if args.out:
        payload = chrome_trace(trace, num_nodes=num_nodes)
        if args.out == "-":
            print(_json.dumps(payload), file=out)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                _json.dump(payload, fh)
                fh.write("\n")
            print(f"chrome trace written to {args.out} "
                  f"({len(payload['traceEvents'])} events; open in "
                  "ui.perfetto.dev or chrome://tracing)", file=out)
    if sampler is not None:
        if args.series == "-":
            sampler.to_csv(out)
        elif args.series.endswith(".json"):
            with open(args.series, "w", encoding="utf-8") as fh:
                fh.write(sampler.to_json() + "\n")
            print(f"time series written to {args.series} "
                  f"({len(sampler.rows_)} samples)", file=out)
        else:
            with open(args.series, "w", encoding="utf-8") as fh:
                sampler.to_csv(fh)
            print(f"time series written to {args.series} "
                  f"({len(sampler.rows_)} samples)", file=out)
    if raw_to_stdout:
        # Stdout is a machine-readable export; keep it parseable.
        return 0 if not record.crashed else 1

    if args.timeline:
        rows = [
            (r["epoch"], f"{r['edge_cycle']:,}",
             f"{r['signoff_cycle']:,}" if r["signoff_cycle"] is not None
             else "-",
             f"{r['signoff_lag']:,}" if r["signoff_lag"] is not None
             else "unvalidated")
            for r in availability_timeline(trace, num_nodes=num_nodes)
        ]
        print(format_table(
            ["epoch", "edge cycle", "sign-off cycle", "lag (cycles)"],
            rows, title="availability timeline"), file=out)
        episodes = recovery_episodes(trace)
        if episodes:
            ep_rows = [
                (f"{e['begin_cycle']:,}", f"{e['end_cycle']:,}",
                 f"{e['span']:,}",
                 f"{e['detection_window']:,}"
                 if e["detection_window"] is not None else "-",
                 e["rpcn"] if e["rpcn"] is not None else "-",
                 e["reason"] or "-")
                for e in episodes
            ]
            print(format_table(
                ["begin", "end", "span", "detect window", "rpcn", "reason"],
                ep_rows, title="recovery episodes"), file=out)

    summary = timeline_summary(trace, num_nodes=num_nodes)
    rows = [
        ("workload", args.workload),
        ("trace records", len(trace)),
        ("epochs (validated)",
         f"{summary['epochs']} ({summary['epochs_validated']})"),
        ("mean sign-off lag", f"{summary['mean_signoff_lag']:,.0f} cycles"),
        ("max sign-off lag", f"{summary['max_signoff_lag']:,} cycles"),
        ("recoveries", summary["recoveries"]),
        ("mean recovery span",
         f"{summary['mean_recovery_span']:,.0f} cycles"),
        ("mean detection window",
         f"{summary['mean_detection_window']:,.0f} cycles"),
        ("cycles", f"{record.cycles:,}"),
        ("completed", record.completed),
    ]
    if record.crashed:
        rows.append(("CRASH", record.crash_reason))
    print(format_table(["metric", "value"], rows,
                       title=f"trace summary (fault={args.fault})"), file=out)
    count_rows = [(kind, f"{n:,}") for kind, n in counts_table(trace)]
    if count_rows:
        print(format_table(["record kind", "count"], count_rows,
                           title="trace record counts"), file=out)
    return 0 if not record.crashed else 1


def cmd_character(args, out) -> int:
    rows = []
    for name in WORKLOAD_NAMES:
        wl = by_name(name, num_cpus=4, scale=16, seed=1)
        c = workload_character(wl, cpus=2, ops_per_cpu=15_000,
                               window_instructions=25_000)
        rows.append((
            name,
            f"{c['memops_per_1000']:.0f}",
            f"{c['stores_per_1000']:.0f}",
            f"{c['shared_frac_of_memops']:.2f}",
            f"{c['distinct_stored_blocks_per_window']:.0f}",
        ))
    print(format_table(
        ["workload", "memops/1k", "stores/1k", "shared frac",
         "distinct stored blocks/window"],
        rows, title="Workload character (Table 3 substitutes)"), file=out)
    return 0


def cmd_config(args, out) -> int:
    try:
        cfg = SystemConfig.paper() if args.paper else \
            SystemConfig.sim_scaled(args.scale)
    except ValueError as exc:
        print(f"bad config: {exc}", file=out)
        return 1
    title = "Table 2 (paper scale)" if args.paper else \
        f"Table 2 (scaled 1/{args.scale})"
    print(format_table(["parameter", "value"], list(cfg.table2().items()),
                       title=title), file=out)
    return 0


#: Each subcommand's handler, ``handler(args, out) -> exit code``.
COMMANDS = {"run": cmd_run, "sweep": cmd_sweep, "worker": cmd_worker,
            "profile": cmd_profile, "trace": cmd_trace,
            "character": cmd_character, "config": cmd_config}


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args, out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
