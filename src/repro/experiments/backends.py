"""Pluggable executor backends — how a campaign's cells actually run.

The :class:`~repro.experiments.runner.Runner` owns campaign *policy*
(resume, retry budget, backoff, quarantine); a backend owns cell
*placement*.  There are three, named in :data:`BACKENDS`:

``serial``
    In-process, one cell at a time.  The debugging backend, and the last
    rung of graceful degradation.
``pool``
    ``ProcessPoolExecutor`` fan-out on this host (the pre-fabric
    runner's behaviour is exactly ``--backend pool --retries 0``, kept
    as the oracle).  Failed cells are retried with exponential backoff
    and finally quarantined — one poisoned spec no longer aborts the
    sweep, and completed-but-unharvested work is never lost.
``filequeue``
    Elastic multi-worker execution over a shared directory queue (the
    :class:`~repro.experiments.journal.AttemptJournal`): workers — local
    children spawned by the coordinator *and* any ``repro worker``
    process on any host sharing the filesystem — claim cells via
    atomic-rename leases, append results to per-worker **sharded
    stores**, and the coordinator merges shards into the main store by
    manifest hash when the queue drains.  A SIGKILLed worker's cells are
    reaped by lease expiry and re-run by a peer.

Cells needing wall-clock timeouts or chaos injection run through
:func:`run_cell_guarded`: a fresh forked child executes
:func:`~repro.experiments.runner.execute_run` and streams the record
back over a pipe, so a hung cell can be SIGKILLed (and a chaos kill
lands) without taking the worker — or the pool — down with it.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments.chaos import ChaosConfig
from repro.experiments.journal import AttemptJournal, default_worker_id
from repro.experiments.runner import RunRecord, RunSpec, execute_run
from repro.experiments.store import ResultStore, shard_path

BACKEND_NAMES = ("auto", "serial", "pool", "filequeue")


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
    heartbeat_s: float = 2.0,
) -> RunRecord:
    """Run one cell in a fresh forked child with a wall-clock guard.

    The parent polls the result pipe in ``heartbeat_s`` slices (stamping
    the caller's lease each slice) and SIGKILLs the child on ``timeout``
    expiry.  Raises :class:`CellTimeout`, :class:`CellCrashed` (child
    died silently — an OOM kill, an external ``kill -9``, or the chaos
    harness), or :class:`CellError` (the run itself raised; the child's
    traceback rides along).
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
            slice_s = heartbeat_s
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


def _pool_cell(spec_dict: Dict[str, Any], timeout: Optional[float],
               chaos_dict: Optional[Dict[str, Any]],
               attempt: int) -> Dict[str, Any]:
    """Pool-worker task for guarded cells (chaos kills hit a grandchild,
    so the pool itself never breaks)."""
    record = run_cell_guarded(
        RunSpec.from_dict(spec_dict), timeout=timeout, attempt=attempt,
        chaos=ChaosConfig.from_dict(chaos_dict))
    return record.to_dict()


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
# Shared retry machinery
# ----------------------------------------------------------------------
def _attempt_once(spec: RunSpec, attempt: int, runner,
                  heartbeat: Optional[Callable[[], None]] = None
                  ) -> RunRecord:
    """One in-process attempt, guarded only when policy requires it."""
    chaos = runner.chaos
    if runner.cell_timeout is None and (chaos is None or not chaos.active):
        try:
            return execute_run(spec)
        except Exception as exc:  # noqa: BLE001 — quarantine, don't abort
            raise CellError(repr(exc), traceback.format_exc()) from exc
    return run_cell_guarded(spec, timeout=runner.cell_timeout,
                            attempt=attempt, chaos=chaos,
                            heartbeat=heartbeat)


def _next_attempt(journal: Optional[AttemptJournal], spec: RunSpec,
                  worker_id: str, fallback: int) -> int:
    """Claim the cell's lease (if journalled) and return its attempt #."""
    if journal is None:
        return fallback
    claimed = journal.claim_hash(spec.spec_hash, worker_id)
    return claimed[1] if claimed is not None else fallback


def _quarantine(journal: Optional[AttemptJournal], spec: RunSpec,
                exc: CellFailure, attempt: int, runner) -> RunRecord:
    record = RunRecord.quarantined(spec, exc.summary(),
                                   traceback_text=exc.traceback_text,
                                   attempts=attempt)
    if journal is not None:
        journal.quarantine(spec.spec_hash, exc.summary(),
                           exc.traceback_text, attempts=attempt)
    runner.progress(f"QUARANTINE {spec.label()} after {attempt} "
                    f"attempt(s): {exc.summary()}")
    return record


class SerialBackend:
    """One cell at a time, in this process, with the full retry policy."""

    def execute(self, specs: List[RunSpec],
                runner) -> Dict[str, RunRecord]:
        journal = runner.journal
        worker_id = default_worker_id()
        out: Dict[str, RunRecord] = {}
        total = len(specs)
        for spec in specs:
            h = spec.spec_hash
            attempt = 0
            while True:
                attempt = _next_attempt(journal, spec, worker_id,
                                        attempt + 1)
                if attempt > runner.max_attempts:
                    exc = CellCrashed("attempt budget exhausted "
                                      "(crash loop across sessions)")
                    out[h] = _quarantine(journal, spec, exc, attempt, runner)
                    break
                try:
                    record = _attempt_once(
                        spec, attempt, runner,
                        heartbeat=(lambda: journal.heartbeat(h))
                        if journal is not None else None)
                except KeyboardInterrupt:
                    if journal is not None:
                        journal.release(h)
                    raise
                except CellFailure as exc:
                    if attempt >= runner.max_attempts:
                        out[h] = _quarantine(journal, spec, exc, attempt,
                                             runner)
                        break
                    if journal is not None:
                        journal.fail(h, exc.summary())
                    delay = backoff_delay(runner.backoff_s, attempt)
                    runner.progress(
                        f"retry {spec.label()} attempt "
                        f"{attempt}/{runner.max_attempts} failed "
                        f"({exc.summary()}); backing off {delay:.1f}s")
                    time.sleep(delay)
                    continue
                if journal is not None:
                    journal.complete(h)
                out[h] = record
                break
            runner._finish(out[h], len(out), total)
        return out


class PoolBackend:
    """Process-pool fan-out with retry/backoff/quarantine and graceful
    degradation: pool-infrastructure failures fall back to serial, a
    failing cell is recorded and the rest keep draining, and SIGINT
    cancels the queue while harvesting (and persisting) what finished.
    """

    def execute(self, specs: List[RunSpec],
                runner) -> Dict[str, RunRecord]:
        try:
            pool = ProcessPoolExecutor(max_workers=runner.jobs)
        except (OSError, PermissionError, ValueError) as exc:
            runner.progress(f"process pool unavailable ({exc!r}); "
                            "falling back to serial execution")
            return SerialBackend().execute(specs, runner)

        journal = runner.journal
        worker_id = default_worker_id()
        chaos = runner.chaos
        guarded = runner.cell_timeout is not None or (
            chaos is not None and chaos.active)
        out: Dict[str, RunRecord] = {}
        total = len(specs)
        pending: Dict[Any, Tuple[RunSpec, int]] = {}
        retries: List[Tuple[float, RunSpec, int]] = []   # (due, spec, attempt)
        runner._campaign_started = time.perf_counter()

        def submit(spec: RunSpec, attempt_floor: int) -> None:
            attempt = _next_attempt(journal, spec, worker_id, attempt_floor)
            if attempt > runner.max_attempts:
                exc = CellCrashed("attempt budget exhausted "
                                  "(crash loop across sessions)")
                out[spec.spec_hash] = _quarantine(journal, spec, exc,
                                                  attempt, runner)
                runner._finish(out[spec.spec_hash], len(out), total)
                return
            if guarded:
                future = pool.submit(
                    _pool_cell, spec.canonical(), runner.cell_timeout,
                    chaos.to_dict() if chaos is not None else None, attempt)
            else:
                future = pool.submit(execute_run, spec)
            pending[future] = (spec, attempt)

        def on_failure(spec: RunSpec, attempt: int, exc: CellFailure) -> None:
            if attempt >= runner.max_attempts:
                out[spec.spec_hash] = _quarantine(journal, spec, exc,
                                                  attempt, runner)
                runner._finish(out[spec.spec_hash], len(out), total)
                return
            if journal is not None:
                journal.fail(spec.spec_hash, exc.summary())
            delay = backoff_delay(runner.backoff_s, attempt)
            runner.progress(f"retry {spec.label()} attempt "
                            f"{attempt}/{runner.max_attempts} failed "
                            f"({exc.summary()}); resubmitting in "
                            f"{delay:.1f}s")
            retries.append((time.monotonic() + delay, spec, attempt))

        try:
            with pool:
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
                    if journal is not None:
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
                            value = future.result()
                        except BrokenProcessPool:
                            raise
                        except CellFailure as exc:
                            on_failure(spec, attempt, exc)
                            continue
                        except Exception as exc:  # noqa: BLE001
                            # A raising cell is recorded and the rest of
                            # the campaign keeps draining (it used to
                            # abort, losing unharvested work).
                            on_failure(spec, attempt,
                                       CellError(repr(exc),
                                                 traceback.format_exc()))
                            continue
                        record = (RunRecord.from_dict(value)
                                  if isinstance(value, dict) else value)
                        if journal is not None:
                            journal.complete(spec.spec_hash)
                        out[spec.spec_hash] = record
                        runner._finish(record, len(out), total)
        except KeyboardInterrupt:
            # Graceful SIGINT: drop the queue, let the <= jobs in-flight
            # cells finish and persist, release every unfinished lease.
            pool.shutdown(wait=False, cancel_futures=True)
            self._drain_interrupted(pending, out, runner, journal, total)
            raise
        except BrokenProcessPool as exc:
            runner.progress(f"process pool broke ({exc!r}); "
                            "falling back to serial execution")
            remaining = [s for s in specs if s.spec_hash not in out]
            out.update(SerialBackend().execute(remaining, runner))
        return out

    @staticmethod
    def _drain_interrupted(pending, out, runner, journal, total) -> None:
        """Harvest cells that finished around the interrupt; release the
        rest back to the journal so resume re-queues them instantly."""
        live = [f for f in pending if not f.cancelled()]
        if live:
            try:
                wait(live, timeout=60.0)
            except Exception:  # noqa: BLE001
                pass
        for future, (spec, _attempt) in pending.items():
            record = None
            if future.done() and not future.cancelled():
                try:
                    value = future.result()
                    record = (RunRecord.from_dict(value)
                              if isinstance(value, dict) else value)
                except BaseException:  # noqa: BLE001
                    record = None
            if record is not None:
                if journal is not None:
                    journal.complete(spec.spec_hash)
                out[spec.spec_hash] = record
                runner._finish(record, len(out), total)
            elif journal is not None:
                journal.release(spec.spec_hash)


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
    poll_s: float = 0.2,
    max_cells: Optional[int] = None,
    chaos: Optional[Any] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> int:
    """One elastic campaign worker: claim, execute, commit, repeat.

    Runs until the journal drains (or ``max_cells``), returning the
    number of cells this worker settled.  Safe to run many at once, on
    any host sharing ``store_path``'s filesystem — this is both the
    ``filequeue`` coordinator's local worker and the ``repro worker``
    CLI entrypoint.  Results land in a per-worker sharded store
    (``<store>.shard.<worker>.jsonl``); the coordinator (or ``repro
    sweep`` on resume) merges shards into the main store.
    """
    if isinstance(chaos, dict):
        chaos = ChaosConfig.from_dict(chaos)
    elif chaos is None:
        chaos = ChaosConfig.from_env()
    journal = AttemptJournal.for_store(store_path)
    journal.ensure_dirs()
    wid = worker_id or default_worker_id()
    say = progress or (lambda line: None)
    shard = ResultStore(shard_path(store_path, wid))
    max_attempts = retries + 1
    executed = 0
    current: Optional[str] = None
    journal.log_event("worker_start", worker=wid)
    try:
        while max_cells is None or executed < max_cells:
            journal.requeue_expired(lease_ttl)
            claimed = journal.claim(wid)
            if claimed is None:
                if journal.outstanding() == 0:
                    break               # queue drained: elastic exit
                time.sleep(poll_s)      # leases in flight may yet expire
                continue
            spec, attempt = claimed
            current = h = spec.spec_hash
            if attempt > max_attempts:
                exc = CellCrashed("attempt budget exhausted (crash loop)")
                record = RunRecord.quarantined(
                    spec, exc.summary(), attempts=attempt)
                shard.append(record)
                journal.quarantine(h, exc.summary(), attempts=attempt)
                executed += 1
                say(f"[{wid}] QUARANTINE {spec.label()}: {exc.summary()}")
                current = None
                continue
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
                if attempt >= max_attempts:
                    record = RunRecord.quarantined(
                        spec, exc.summary(),
                        traceback_text=exc.traceback_text, attempts=attempt)
                    shard.append(record)
                    journal.quarantine(h, exc.summary(), exc.traceback_text,
                                       attempts=attempt)
                    executed += 1
                    say(f"[{wid}] QUARANTINE {spec.label()} after "
                        f"{attempt} attempt(s): {exc.summary()}")
                else:
                    journal.fail(h, exc.summary())
                    delay = backoff_delay(backoff_s, attempt)
                    say(f"[{wid}] {spec.label()} attempt "
                        f"{attempt}/{max_attempts} failed "
                        f"({exc.summary()}); requeued, backing off "
                        f"{delay:.1f}s")
                    time.sleep(delay)
                current = None
                continue
            if chaos is not None and chaos.should_tear(h, attempt):
                # Torn-write chaos: die "mid-append", leaving a truncated
                # trailing line in the shard; the attempt failed, the
                # loader seals the tear on the next append.
                shard.append_torn(record)
                journal.log_event("chaos_torn", h, worker=wid,
                                  attempt=attempt)
                journal.fail(h, "torn store append (chaos)")
                say(f"[{wid}] {spec.label()} attempt {attempt} torn "
                    "mid-append (chaos); requeued")
                current = None
                continue
            shard.append(record)
            journal.complete(h)
            executed += 1
            say(f"[{wid}] {spec.label()} ok ({record.cycles:,} cycles, "
                f"{record.elapsed_s:.1f}s, attempt {attempt})")
            current = None
    except (KeyboardInterrupt, SystemExit):
        if current is not None:
            journal.release(current)
        journal.log_event("worker_exit", worker=wid, cells=executed,
                          reason="interrupted")
        raise
    journal.log_event("worker_exit", worker=wid, cells=executed,
                      reason="drained")
    return executed


class FileQueueBackend:
    """Directory-queue coordinator: seed the journal, spawn local
    workers, reap expired leases while they run, then merge shards.

    External ``repro worker`` processes (same host or any host sharing
    the store's filesystem) may join and leave at any point — the
    coordinator only insists the queue drains.  If every local worker
    dies with work outstanding, the coordinator drains the remainder
    itself, in process: parallel -> fewer workers -> serial is the
    degradation ladder, never a lost campaign.
    """

    def execute(self, specs: List[RunSpec],
                runner) -> Dict[str, RunRecord]:
        import multiprocessing

        if runner.store is None:
            raise ValueError("the filequeue backend needs a result store "
                             "(pass store=/--out)")
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
        last_beat = time.monotonic()
        try:
            while journal.outstanding() > 0 and any(p.is_alive()
                                                    for p in workers):
                journal.requeue_expired(runner.lease_ttl)
                if (runner.heartbeat_s > 0
                        and time.monotonic() - last_beat
                        >= runner.heartbeat_s):
                    counts = journal.counts()
                    runner.progress(
                        f"heartbeat: {counts['pending']} pending, "
                        f"{counts['leased']} leased, "
                        f"{counts['quarantined']} quarantined, "
                        f"{sum(p.is_alive() for p in workers)} local "
                        "workers alive")
                    last_beat = time.monotonic()
                time.sleep(0.2)
            for proc in workers:
                proc.join()
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
            store.merge_shards()
            raise
        merged = store.merge_shards()
        if merged["merged"] or merged["shards"]:
            runner.progress(
                f"merged {merged['merged']} records from "
                f"{merged['shards']} worker shard(s)"
                + (f", {merged['torn_lines']} torn line(s) sealed"
                   if merged["torn_lines"] else ""))
        out: Dict[str, RunRecord] = {}
        total = len(specs)
        for spec in specs:
            record = store.get(spec.spec_hash)
            if record is None:
                # Should be unreachable once the queue drained; quarantine
                # rather than crash the campaign over bookkeeping.
                exc = CellCrashed("cell vanished from queue and store")
                record = _quarantine(journal, spec, exc, 0, runner)
                store.append(record)
            out[spec.spec_hash] = record
            runner._finish(record, len(out), total, persist=False)
        return out


#: Every backend's ``execute(specs, runner)`` returns ``{spec_hash:
#: RunRecord}`` covering *every* input spec — quarantined cells included
#: as structured failed records — and calls ``runner._finish`` per record,
#: so store persistence and progress lines happen as each cell lands.
BACKENDS = {"serial": SerialBackend, "pool": PoolBackend,
            "filequeue": FileQueueBackend}
