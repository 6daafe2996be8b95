"""Executor backends — where a campaign's cells run.

The :class:`~repro.experiments.runner.Runner` owns campaign *policy*
(resume, retry budget, backoff); a backend owns cell *placement*.  Every
backend settles a failed attempt through one recovery rule,
:func:`_settle_failure`: the cell goes back to the queue after its
backoff until the attempt budget is spent, then it is quarantined as a
structured failed record.  Every backend settles a cell, healthy or
quarantined, in one order: its record is committed first (to the store
through ``Runner._finish``, or to the worker's shard), and its lease is
retired second (``AttemptJournal.complete``), so a session that dies in
between leaves a lease the next one retires.  There are three backends,
named in :data:`BACKENDS`:

``serial``
    In-process, one cell at a time.  The debugging backend, and the last
    rung of graceful degradation.
``pool``
    ``ProcessPoolExecutor`` fan-out on this host (the pre-fabric
    runner's behaviour is exactly ``--backend pool --retries 0``).  A
    failed cell is resubmitted after its backoff while the rest keep
    draining, so one poisoned spec never aborts the sweep and
    completed-but-unharvested work is never lost.
``filequeue``
    Elastic multi-worker execution over a shared directory queue (the
    :class:`~repro.experiments.journal.AttemptJournal`): workers — local
    children spawned by the coordinator *and* any ``repro worker``
    process on any host sharing the filesystem — claim cells via
    atomic-rename leases and append results to per-worker **sharded
    stores**.  Workers reap expired leases and exit once nothing is
    outstanding; the coordinator waits on its local workers, then merges
    every shard record into the main store, deduplicated by spec hash.
    A SIGKILLed worker's cells are reaped by lease expiry and re-run by
    a peer.

:func:`attempt_cell` makes one attempt: in this process, unless a
wall-clock cell timeout or an active chaos policy needs
:func:`run_cell_guarded` — a fresh forked child that executes
:func:`~repro.experiments.runner.execute_run` and streams the record
back over a pipe, so a hung cell can be SIGKILLed (and a chaos kill
lands) without taking the worker — or the pool — down with it.
Filequeue workers run every cell guarded.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments.chaos import ChaosConfig
from repro.experiments.journal import AttemptJournal, default_worker_id
from repro.experiments.runner import (
    RunRecord,
    RunSpec,
    check_fabric_settings,
    execute_run,
)
from repro.experiments.store import ResultStore, shard_path

BACKEND_NAMES = ("auto", "serial", "pool", "filequeue")

#: Seconds an idle worker waits before it looks for a claimable cell
#: again while peers still hold leases.
IDLE_POLL_S = 0.2

#: Seconds between lease heartbeats while a guarded cell runs.
HEARTBEAT_S = 2.0


# ----------------------------------------------------------------------
# Cell-attempt failures (all retryable; picklable across pool workers)
# ----------------------------------------------------------------------
class CellFailure(Exception):
    """One attempt at a cell failed; the fabric may retry it."""

    @property
    def traceback_text(self) -> str:
        return self.args[1] if len(self.args) > 1 else ""

    def summary(self) -> str:
        return f"{type(self).__name__}: {self.args[0] if self.args else ''}"


class CellTimeout(CellFailure):
    """The cell exceeded its wall-clock budget and was SIGKILLed."""


class CellCrashed(CellFailure):
    """The cell process died without reporting (SIGKILL, OOM, chaos)."""


class CellError(CellFailure):
    """``execute_run`` raised; ``args = (repr(exc), traceback_text)``."""


#: Why a cell claimed past its attempt budget is quarantined unrun: the
#: sessions or workers that burned those attempts died mid-cell.
OVER_BUDGET = CellCrashed("attempt budget exhausted "
                          "(crash loop across sessions)")


# ----------------------------------------------------------------------
# Guarded execution: one cell in a kill-able forked child
# ----------------------------------------------------------------------
def _guarded_cell_main(spec_dict: Dict[str, Any], conn,
                       chaos_dict: Optional[Dict[str, Any]],
                       attempt: int) -> None:
    """Child-process entry: run one cell, stream the record back."""
    from repro.experiments.chaos import arm_kill

    try:
        spec = RunSpec.from_dict(spec_dict)
        arm_kill(ChaosConfig.from_dict(chaos_dict), spec.spec_hash, attempt)
        record = execute_run(spec)
        conn.send(("ok", record.to_dict()))
    except BaseException as exc:  # noqa: BLE001 — report, then die
        try:
            conn.send(("error", repr(exc), traceback.format_exc()))
        except OSError:
            pass
    finally:
        conn.close()


def run_cell_guarded(
    spec: RunSpec,
    *,
    timeout: Optional[float] = None,
    attempt: int = 1,
    chaos: Optional[ChaosConfig] = None,
    heartbeat: Optional[Callable[[], None]] = None,
) -> RunRecord:
    """Run one cell in a fresh forked child with a wall-clock guard.

    The parent polls the result pipe in :data:`HEARTBEAT_S` slices
    (calling ``heartbeat``, which stamps the caller's lease, each slice)
    and SIGKILLs the child on ``timeout`` expiry.  Raises
    :class:`CellTimeout`, :class:`CellCrashed` (child died silently — an
    OOM kill, an external ``kill -9``, or the chaos harness), or
    :class:`CellError` (the run itself raised; the child's traceback
    rides along).  Filequeue workers run every cell through here; the
    other backends only when :func:`attempt_cell` needs a guard.
    """
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    rx, tx = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_guarded_cell_main,
        args=(spec.canonical(), tx,
              chaos.to_dict() if chaos is not None else None, attempt))
    proc.start()
    tx.close()
    deadline = None if timeout is None else time.monotonic() + timeout
    payload = None
    try:
        while True:
            if heartbeat is not None:
                heartbeat()
            slice_s = HEARTBEAT_S
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise CellTimeout(
                        f"exceeded {timeout:.1f}s wall-clock cell timeout")
                slice_s = min(slice_s, remaining)
            if rx.poll(slice_s):
                break
        try:
            payload = rx.recv()
        except EOFError:
            payload = None
    finally:
        if proc.is_alive():
            proc.kill()
        proc.join()
        rx.close()
    if payload is None:
        raise CellCrashed(
            f"cell process died without a result (exit code {proc.exitcode})")
    if payload[0] == "ok":
        return RunRecord.from_dict(payload[1])
    raise CellError(payload[1], payload[2])


def attempt_cell(spec: RunSpec, attempt: int, timeout: Optional[float],
                 chaos: Optional[ChaosConfig],
                 heartbeat: Optional[Callable[[], None]] = None
                 ) -> RunRecord:
    """One attempt at a cell; every failure surfaces as a
    :class:`CellFailure`.

    Runs in this process unless a wall-clock ``timeout`` or an active
    ``chaos`` policy needs :func:`run_cell_guarded`.  The pool submits
    this function for every cell.
    """
    if timeout is None and (chaos is None or not chaos.active):
        try:
            return execute_run(spec)
        except Exception as exc:  # noqa: BLE001 — quarantine, don't abort
            raise CellError(repr(exc), traceback.format_exc()) from exc
    return run_cell_guarded(spec, timeout=timeout, attempt=attempt,
                            chaos=chaos, heartbeat=heartbeat)


def resolve_backend(name: str, jobs: int) -> str:
    """``auto`` picks ``pool`` for parallel campaigns, else ``serial``."""
    if name == "auto":
        return "pool" if jobs > 1 else "serial"
    if name not in BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; one of {tuple(BACKEND_NAMES)}")
    return name


def backoff_delay(backoff_s: float, attempt: int) -> float:
    """Seconds to wait after failed ``attempt`` before the next one:
    ``backoff_s * 2**(attempt-1)``, capped at 30 s.  Every backend and
    every ``repro worker`` retries on this one schedule."""
    return min(backoff_s * 2 ** (attempt - 1), 30.0)


# ----------------------------------------------------------------------
# The recovery rule every backend shares
# ----------------------------------------------------------------------
def _next_attempt(journal: AttemptJournal, spec: RunSpec, worker_id: str,
                  fallback: int) -> int:
    """Claim the cell's lease and return its attempt number; ``fallback``
    when the claim loses (an external worker holds the lease)."""
    claimed = journal.claim_hash(spec.spec_hash, worker_id)
    return claimed[1] if claimed is not None else fallback


def _quarantine(spec: RunSpec, exc: CellFailure, attempt: int,
                say: Callable[[str], None]) -> RunRecord:
    """A cell's post-mortem as a failed record, announced through
    ``say``; the caller settles it like any other record."""
    say(f"QUARANTINE {spec.label()} after {attempt} attempt(s): "
        f"{exc.summary()}")
    return RunRecord.quarantined(spec, exc.summary(),
                                 traceback_text=exc.traceback_text,
                                 attempts=attempt)


def _settle_failure(journal: AttemptJournal, spec: RunSpec,
                    exc: CellFailure, attempt: int, max_attempts: int,
                    backoff_s: float, say: Callable[[str], None]
                    ) -> Tuple[Optional[RunRecord], float]:
    """Decide what failed ``attempt`` leads to.

    Once the budget is spent the cell is quarantined: returns
    ``(failed record, 0)``.  Otherwise its lease goes back to the queue
    with the attempt counted, and the caller retries after the returned
    backoff: ``(None, delay)``.
    """
    if attempt >= max_attempts:
        return _quarantine(spec, exc, attempt, say), 0.0
    journal.fail(spec.spec_hash, exc.summary())
    delay = backoff_delay(backoff_s, attempt)
    say(f"retry {spec.label()} attempt {attempt}/{max_attempts} failed "
        f"({exc.summary()}); backing off {delay:.1f}s")
    return None, delay


# ----------------------------------------------------------------------
# serial and pool: this session's coordinator owns every lease
# ----------------------------------------------------------------------
def _run_serial(specs: List[RunSpec], runner) -> Dict[str, RunRecord]:
    """One cell at a time, in this process."""
    journal = runner.journal
    worker_id = default_worker_id()
    out: Dict[str, RunRecord] = {}
    total = len(specs)
    for spec in specs:
        h = spec.spec_hash
        record: Optional[RunRecord] = None
        attempt = 0
        while record is None:
            attempt = _next_attempt(journal, spec, worker_id, attempt + 1)
            if attempt > runner.max_attempts:
                record = _quarantine(spec, OVER_BUDGET, attempt,
                                     runner.progress)
                continue
            try:
                record = attempt_cell(
                    spec, attempt, runner.cell_timeout, runner.chaos,
                    heartbeat=lambda: journal.heartbeat(h))
            except KeyboardInterrupt:
                journal.release(h)
                raise
            except CellFailure as exc:
                record, delay = _settle_failure(
                    journal, spec, exc, attempt, runner.max_attempts,
                    runner.backoff_s, runner.progress)
                if record is None:
                    time.sleep(delay)
        out[h] = record
        runner._finish(record, len(out), total)
    return out


def _run_pool(specs: List[RunSpec], runner) -> Dict[str, RunRecord]:
    """Process-pool fan-out with graceful degradation: pool-infrastructure
    failures fall back to serial, a failing cell is resubmitted after its
    backoff (without blocking the harvest) or quarantined while the rest
    keep draining, and SIGINT cancels the queue while harvesting (and
    persisting) what finished.
    """
    try:
        pool = ProcessPoolExecutor(max_workers=runner.jobs)
    except (OSError, PermissionError, ValueError) as exc:
        runner.progress(f"process pool unavailable ({exc!r}); "
                        "falling back to serial execution")
        return _run_serial(specs, runner)

    journal = runner.journal
    worker_id = default_worker_id()
    out: Dict[str, RunRecord] = {}
    total = len(specs)
    pending: Dict[Any, Tuple[RunSpec, int]] = {}
    retries: List[Tuple[float, RunSpec, int]] = []   # (due, spec, attempt)
    runner._campaign_started = time.perf_counter()

    def finish(record: RunRecord) -> None:
        out[record.spec_hash] = record
        runner._finish(record, len(out), total)

    def submit(spec: RunSpec, attempt_floor: int) -> None:
        attempt = _next_attempt(journal, spec, worker_id, attempt_floor)
        if attempt > runner.max_attempts:
            finish(_quarantine(spec, OVER_BUDGET, attempt, runner.progress))
            return
        future = pool.submit(attempt_cell, spec, attempt,
                             runner.cell_timeout, runner.chaos)
        pending[future] = (spec, attempt)

    def on_failure(spec: RunSpec, attempt: int, exc: CellFailure) -> None:
        record, delay = _settle_failure(
            journal, spec, exc, attempt, runner.max_attempts,
            runner.backoff_s, runner.progress)
        if record is not None:
            finish(record)
        else:
            retries.append((time.monotonic() + delay, spec, attempt))

    try:
        with pool:
            try:
                for spec in specs:
                    submit(spec, 1)
                while pending or retries:
                    now = time.monotonic()
                    due = [r for r in retries if r[0] <= now]
                    retries[:] = [r for r in retries if r[0] > now]
                    for _, spec, attempt in due:
                        submit(spec, attempt + 1)
                    if not pending:
                        if retries:
                            time.sleep(max(0.0, min(r[0] for r in retries)
                                           - time.monotonic()))
                        continue
                    timeout = min(
                        [runner.heartbeat_s if runner.heartbeat_s > 0
                         else 3600.0]
                        + [max(0.05, r[0] - now) for r in retries])
                    finished, _ = wait(pending, timeout=timeout,
                                       return_when=FIRST_COMPLETED)
                    for spec, _attempt in pending.values():
                        journal.heartbeat(spec.spec_hash)
                    if not finished:
                        if not retries:
                            runner._heartbeat(pending, done=len(out),
                                              total=total)
                        continue
                    for future in finished:
                        spec, attempt = pending.pop(future)
                        try:
                            record = future.result()
                        except BrokenProcessPool:
                            raise
                        except CellFailure as exc:
                            on_failure(spec, attempt, exc)
                            continue
                        except Exception as exc:  # noqa: BLE001
                            # The task itself could not run or report (a
                            # pickling error, say): a failed attempt too.
                            on_failure(spec, attempt,
                                       CellError(repr(exc),
                                                 traceback.format_exc()))
                            continue
                        finish(record)
            except KeyboardInterrupt:
                # Graceful SIGINT: cancel the queue here, before the
                # ``with`` exit waits on it (``cancel_futures`` alone
                # cancels later, unseen by ``wait``), let the <= jobs
                # in-flight cells finish and persist, and release every
                # other lease so a resume re-queues it instantly.
                for future in pending:
                    future.cancel()
                pool.shutdown(wait=False, cancel_futures=True)
                wait([f for f in pending if not f.cancelled()],
                     timeout=60.0)
                for future, (spec, _attempt) in pending.items():
                    if (future.done() and not future.cancelled()
                            and future.exception() is None):
                        finish(future.result())
                    else:
                        journal.release(spec.spec_hash)
                raise
    except BrokenProcessPool as exc:
        runner.progress(f"process pool broke ({exc!r}); "
                        "falling back to serial execution")
        remaining = [s for s in specs if s.spec_hash not in out]
        out.update(_run_serial(remaining, runner))
    return out


# ----------------------------------------------------------------------
# filequeue: elastic workers over a shared directory queue
# ----------------------------------------------------------------------
def run_worker(
    store_path: str,
    *,
    worker_id: Optional[str] = None,
    lease_ttl: float = 60.0,
    cell_timeout: Optional[float] = None,
    retries: int = 2,
    backoff_s: float = 0.5,
    max_cells: Optional[int] = None,
    chaos: Optional[Any] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> int:
    """One elastic campaign worker: claim, execute, commit, repeat.

    Runs until the journal has nothing outstanding (or ``max_cells``),
    returning the number of cells this worker settled.  Safe to run many
    at once, on any host sharing ``store_path``'s filesystem — this is
    both the ``filequeue`` coordinator's local worker and the ``repro
    worker`` CLI entrypoint.  Before every claim it reaps expired leases;
    while peers hold the only leases it polls every :data:`IDLE_POLL_S`.
    Each cell runs through :func:`run_cell_guarded`, and a failed attempt
    is settled by the same retry/quarantine rule as every backend.
    Records land in a per-worker sharded store
    (``<store>.shard.<worker>.jsonl``) before their leases are retired;
    the coordinator, or the next session on any backend, merges shards
    into the main store.  Raises ``ValueError`` on bad settings before
    touching the journal.
    """
    check_fabric_settings(retries=retries, cell_timeout=cell_timeout,
                          lease_ttl=lease_ttl, backoff_s=backoff_s)
    if isinstance(chaos, dict):
        chaos = ChaosConfig.from_dict(chaos)
    elif chaos is None:
        chaos = ChaosConfig.from_env()
    journal = AttemptJournal.for_store(store_path)
    journal.ensure_dirs()
    wid = worker_id or default_worker_id()
    progress = progress or (lambda line: None)

    def say(line: str) -> None:
        progress(f"[{wid}] {line}")

    shard = ResultStore(shard_path(store_path, wid))
    max_attempts = retries + 1
    executed = 0
    current: Optional[str] = None
    journal.log_event("worker_start", worker=wid)
    try:
        while max_cells is None or executed < max_cells:
            current = None
            journal.requeue_expired(lease_ttl)
            claimed = journal.claim(wid)
            if claimed is None:
                if journal.outstanding() == 0:
                    break               # queue drained: elastic exit
                time.sleep(IDLE_POLL_S)  # leases in flight may yet expire
                continue
            spec, attempt = claimed
            current = h = spec.spec_hash
            if attempt > max_attempts:
                record = _quarantine(spec, OVER_BUDGET, attempt, say)
            else:
                stalled = chaos is not None and chaos.should_stall(h, attempt)
                if stalled:
                    journal.log_event("chaos_stall", h, worker=wid,
                                      attempt=attempt)
                heartbeat = (lambda: None) if stalled else \
                    (lambda: journal.heartbeat(h))
                try:
                    record = run_cell_guarded(
                        spec, timeout=cell_timeout, attempt=attempt,
                        chaos=chaos, heartbeat=heartbeat)
                except CellFailure as exc:
                    record, delay = _settle_failure(
                        journal, spec, exc, attempt, max_attempts, backoff_s,
                        say)
                    if record is None:
                        time.sleep(delay)
                        continue
                else:
                    if chaos is not None and chaos.should_tear(h, attempt):
                        # Torn-write chaos: die "mid-append", leaving a
                        # truncated trailing line in the shard; the attempt
                        # failed, the loader seals the tear on the next
                        # append.
                        shard.append_torn(record)
                        journal.log_event("chaos_torn", h, worker=wid,
                                          attempt=attempt)
                        journal.fail(h, "torn store append (chaos)")
                        say(f"{spec.label()} attempt {attempt} torn "
                            "mid-append (chaos); requeued")
                        continue
            shard.append(record)
            journal.complete(h, record.failure)
            executed += 1
            if not record.failed:
                say(f"{spec.label()} ok ({record.cycles:,} cycles, "
                    f"{record.elapsed_s:.1f}s, attempt {attempt})")
    except (KeyboardInterrupt, SystemExit):
        if current is not None:
            journal.release(current)
        journal.log_event("worker_exit", worker=wid, cells=executed,
                          reason="interrupted")
        raise
    journal.log_event("worker_exit", worker=wid, cells=executed,
                      reason="drained")
    return executed


def _run_filequeue(specs: List[RunSpec], runner) -> Dict[str, RunRecord]:
    """Directory-queue coordinator: spawn ``jobs`` local workers on the
    seeded journal, wait for them to exit, then merge their shards.

    Workers reap expired leases themselves and exit once nothing is
    outstanding, so the coordinator only joins them, printing a
    heartbeat line every ``heartbeat_s`` while one is alive.  External
    ``repro worker`` processes (same host or any host sharing the
    store's filesystem) may join and leave at any point.  If every local
    worker dies with work outstanding, the coordinator drains the
    remainder itself, in process: parallel -> fewer workers -> serial is
    the degradation ladder, never a lost campaign.
    """
    import multiprocessing

    journal = runner.journal
    store = runner.store
    ctx = multiprocessing.get_context("fork")
    chaos_dict = runner.chaos.to_dict() if runner.chaos is not None \
        else None
    kwargs = dict(
        store_path=store.path, lease_ttl=runner.lease_ttl,
        cell_timeout=runner.cell_timeout, retries=runner.retries,
        backoff_s=runner.backoff_s, chaos=chaos_dict,
        progress=runner.progress)
    workers = [
        ctx.Process(target=run_worker, name=f"repro-worker-{i}",
                    kwargs=dict(kwargs,
                                worker_id=f"{default_worker_id()}-w{i}"))
        for i in range(runner.jobs)
    ]
    runner._campaign_started = time.perf_counter()
    for proc in workers:
        proc.start()
    try:
        for proc in workers:
            proc.join(runner.heartbeat_s or None)
            while proc.is_alive():
                counts = journal.counts()
                runner.progress(
                    f"heartbeat: {counts['pending']} pending, "
                    f"{counts['leased']} leased, "
                    f"{sum(p.is_alive() for p in workers)} local "
                    "workers alive")
                proc.join(runner.heartbeat_s)
        if journal.outstanding() > 0:
            runner.progress("all workers exited with cells "
                            "outstanding; draining in-process")
            run_worker(**dict(kwargs,
                              worker_id=f"{default_worker_id()}-drain"))
    except KeyboardInterrupt:
        for proc in workers:
            proc.terminate()
        for proc in workers:
            proc.join(timeout=5.0)
        # Release every lease (dead local workers hold some) so a
        # resume needn't wait out the TTL; live remote workers just
        # re-claim — duplicate execution dedupes at the store.
        journal.requeue_expired(0.0)
        runner._fold_shards()
        raise
    runner._fold_shards()
    out: Dict[str, RunRecord] = {}
    total = len(specs)
    for spec in specs:
        record = store.get(spec.spec_hash)
        persist = record is None
        if persist:
            # Should be unreachable once the queue drained; quarantine
            # rather than crash the campaign over bookkeeping.
            record = _quarantine(
                spec, CellCrashed("cell vanished from queue and store"), 0,
                runner.progress)
        out[spec.spec_hash] = record
        runner._finish(record, len(out), total, persist=persist)
    return out


#: Every backend, ``backend(specs, runner)``, runs on the runner's store
#: and journal, returns ``{spec_hash: RunRecord}`` covering *every* input
#: spec — quarantined cells included as structured failed records — and
#: calls ``runner._finish`` per record as each cell lands, which commits
#: it and retires its lease (filequeue workers do both in their shards).
BACKENDS = {"serial": _run_serial, "pool": _run_pool,
            "filequeue": _run_filequeue}
