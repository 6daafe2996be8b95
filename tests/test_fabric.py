"""Tests for the self-healing campaign fabric.

Covers the pieces individually — chaos policy, attempt journal, guarded
cell execution, executor backends — and the policies that tie them
together: retry/backoff/quarantine, lease recovery, exactly-once
completion.  The end-to-end chaos-equivalence guards (kill/stall/torn
sweeps converging bit-identically to a clean run) live in
``test_fabric_chaos.py``.
"""

import json
import multiprocessing
import os
import tempfile
import time

import pytest

from repro.experiments import (
    ChaosConfig,
    ResultStore,
    Runner,
    RunRecord,
    RunSpec,
    execute_run,
    list_shards,
    shard_path,
)
from repro.experiments.backends import (
    BACKENDS,
    CellCrashed,
    CellError,
    CellFailure,
    CellTimeout,
    resolve_backend,
    run_cell_guarded,
    run_worker,
)
from repro.experiments.journal import AttemptJournal, journal_path
from repro.obs import fabric_summary, load_fabric_events

TINY = RunSpec(workload="apache", instructions=400, warmup=0, preset="tiny",
               scale=64, max_cycles=2_000_000)

_real_execute_run = execute_run


def _tiny_specs(n=3):
    return [TINY.with_(seed=s) for s in range(1, n + 1)]


def _fail_seed3(spec):
    """Module-level (picklable) stand-in: seed 3 is a poisoned cell."""
    if spec.seed == 3:
        raise RuntimeError("poisoned cell")
    return _real_execute_run(spec)


_FLAKY_CALLS = {"n": 0}


def _fail_first_attempt(spec):
    _FLAKY_CALLS["n"] += 1
    if _FLAKY_CALLS["n"] == 1:
        raise RuntimeError("transient infrastructure flake")
    return _real_execute_run(spec)


# ----------------------------------------------------------------------
# Chaos policy
# ----------------------------------------------------------------------
def test_chaos_parse_and_env():
    chaos = ChaosConfig.parse("kill=1.0,kill_until=2,stall=0.5,seed=7")
    assert chaos.kill == 1.0 and chaos.kill_until == 2
    assert chaos.stall == 0.5 and chaos.torn == 0.0 and chaos.seed == 7
    assert chaos.active
    assert ChaosConfig.from_env({"REPRO_CHAOS": ""}) is None
    assert ChaosConfig.from_env({}) is None
    assert ChaosConfig.from_env({"REPRO_CHAOS": "kill=0.0"}) is None
    parsed = ChaosConfig.from_env({"REPRO_CHAOS": "torn=0.3,seed=2"})
    assert parsed == ChaosConfig(torn=0.3, seed=2)
    with pytest.raises(ValueError):
        ChaosConfig.parse("kill=1.5")
    with pytest.raises(ValueError):
        ChaosConfig.parse("nonsense")
    with pytest.raises(ValueError):
        ChaosConfig.parse("warp=0.5")


def test_chaos_decisions_are_deterministic_and_scoped():
    chaos = ChaosConfig(kill=1.0, kill_until=1, stall=0.5, seed=3)
    h = TINY.spec_hash
    # Same inputs, same answer — across instances too.
    assert chaos.should_kill(h, 1)
    assert chaos.should_kill(h, 1) == ChaosConfig(
        kill=1.0, kill_until=1, stall=0.5, seed=3).should_kill(h, 1)
    # Attempts past *_until are never eligible: retries provably converge.
    assert not chaos.should_kill(h, 2)
    assert not ChaosConfig(kill=1.0, kill_until=3, seed=3).should_kill(h, 4)
    # p=0 never fires, p=1 always fires (first attempt).
    assert not ChaosConfig().should_kill(h, 1)
    assert ChaosConfig(torn=1.0).should_tear(h, 1)
    # The seed decorrelates campaigns: over many cells the stall=0.5
    # policy must actually split decisions.
    hashes = [TINY.with_(seed=s).spec_hash for s in range(1, 30)]
    fired = sum(chaos.should_stall(x, 1) for x in hashes)
    assert 0 < fired < len(hashes)
    # Round-trips across the process boundary.
    assert ChaosConfig.from_dict(chaos.to_dict()) == chaos
    assert ChaosConfig.from_dict(None) is None


# ----------------------------------------------------------------------
# Attempt journal
# ----------------------------------------------------------------------
def test_journal_seed_claim_complete_lifecycle(tmp_path):
    store_path = str(tmp_path / "r.jsonl")
    journal = AttemptJournal.for_store(store_path)
    assert journal.root == journal_path(store_path)
    assert not journal.exists()
    journal.ensure_dirs()
    specs = _tiny_specs(3)
    assert journal.seed(specs) == 3
    assert journal.seed(specs) == 0          # idempotent
    assert journal.counts() == {"pending": 3, "leased": 0}

    claimed = journal.claim("w1")
    assert claimed is not None
    spec, attempt = claimed
    assert attempt == 1 and spec.spec_hash in {s.spec_hash for s in specs}
    # The lease is exclusive: a second claim of the same hash loses.
    assert journal.claim_hash(spec.spec_hash, "w2") is None
    assert journal.counts()["leased"] == 1

    journal.complete(spec.spec_hash)
    assert journal.counts() == {"pending": 2, "leased": 0}
    assert journal.outstanding() == 2


def test_journal_fail_keeps_attempts_release_refunds(tmp_path):
    journal = AttemptJournal.for_store(str(tmp_path / "r.jsonl"))
    journal.ensure_dirs()
    journal.seed([TINY])
    h = TINY.spec_hash

    _, attempt = journal.claim_hash(h, "w")
    assert attempt == 1
    journal.fail(h, "boom")                  # a burned attempt
    _, attempt = journal.claim_hash(h, "w")
    assert attempt == 2
    entry = journal.entries("leased")[0]
    assert entry["worker"] == "w" and entry["last_error"] == "boom"
    journal.release(h)                       # SIGINT: attempt refunded
    _, attempt = journal.claim_hash(h, "w")
    assert attempt == 2


def test_journal_lease_expiry_requeues(tmp_path):
    journal = AttemptJournal.for_store(str(tmp_path / "r.jsonl"))
    journal.ensure_dirs()
    journal.seed(_tiny_specs(2))
    a, _ = journal.claim("w1")
    b, _ = journal.claim("w1")
    journal.heartbeat(b.spec_hash)
    # Reap with a TTL that only the un-heartbeaten lease exceeds.
    now = time.time()
    os.utime(journal._file("leased", a.spec_hash), (now - 120, now - 120))
    reaped = journal.requeue_expired(60.0)
    assert reaped == [a.spec_hash]
    assert journal.counts() == {"pending": 1, "leased": 1}
    # Re-claiming the reaped cell costs no extra attempt (delta 0).
    _, attempt = journal.claim_hash(a.spec_hash, "w2")
    assert attempt == 2


def test_journal_quarantine_retires_the_lease(tmp_path):
    # A quarantine settles a cell like a completion: its failed record is
    # in the store, so the journal only logs the post-mortem.
    journal = AttemptJournal.for_store(str(tmp_path / "r.jsonl"))
    journal.ensure_dirs()
    journal.seed([TINY])
    h = TINY.spec_hash
    journal.claim_hash(h, "w")
    journal.complete(h, {"error": "CellTimeout: too slow",
                         "traceback": "tb...", "attempts": 3})
    assert journal.counts() == {"pending": 0, "leased": 0}
    event = load_fabric_events(journal.root)[-1]
    assert event["event"] == "quarantine" and event["hash"] == h
    assert event["error"] == "CellTimeout: too slow"
    assert event["attempts"] == 3
    # A re-seeded cell (Runner does this on --retry-failed) starts a
    # fresh attempt budget.
    assert journal.seed([TINY]) == 1
    _, attempt = journal.claim_hash(h, "w")
    assert attempt == 1


def test_journal_event_log_feeds_fabric_summary(tmp_path):
    store_path = str(tmp_path / "r.jsonl")
    journal = AttemptJournal.for_store(store_path)
    journal.ensure_dirs()
    journal.seed([TINY])
    h = TINY.spec_hash
    journal.claim_hash(h, "w1")
    journal.fail(h, "boom")
    journal.claim_hash(h, "w1")
    journal.complete(h)
    events = load_fabric_events(store_path)
    assert [e["event"] for e in events] == [
        "seed", "claim", "fail", "claim", "complete"]
    summary = fabric_summary(events)
    assert summary["claims"] == 2 and summary["completes"] == 1
    assert summary["fails"] == 1 and summary["workers"] == ["w1"]
    assert summary["max_attempts"] == 2 and summary["max_attempts_hash"] == h
    # Torn/absent logs parse tolerantly.
    with open(os.path.join(journal.root, "events.jsonl"), "a") as fh:
        fh.write('{"event": "cla')
    assert len(load_fabric_events(store_path)) == len(events)
    assert load_fabric_events(str(tmp_path / "nope.jsonl")) == []


# ----------------------------------------------------------------------
# Quarantined records
# ----------------------------------------------------------------------
def test_quarantined_record_roundtrips_and_healthy_serialisation_stable(
        tmp_path):
    bad = RunRecord.quarantined(TINY, "CellCrashed: kill -9",
                                traceback_text="tb", attempts=3)
    assert bad.failed and not bad.crashed and not bad.completed
    assert bad.failure["attempts"] == 3
    store = ResultStore(str(tmp_path / "r.jsonl"))
    store.append(bad)
    good = execute_run(TINY.with_(seed=2))
    store.append(good)
    again = ResultStore(store.path)
    assert again.get(bad.spec_hash).failed
    assert again.get(bad.spec_hash).failure["error"] == "CellCrashed: kill -9"
    assert not again.get(good.spec_hash).failed
    # Healthy records serialise without the fabric fields: stores written
    # by the pre-fabric runner and by this one are byte-compatible.
    assert "failed" not in good.to_dict()
    assert "failure" not in good.to_dict()
    assert "failed" in bad.to_dict()


def test_aggregate_excludes_quarantined_records():
    from repro.experiments import aggregate

    good = execute_run(TINY)
    bad = RunRecord.quarantined(TINY.with_(seed=2), "boom")
    cells = aggregate([good, bad])
    assert len(cells) == 1 and cells[0].n == 1
    assert aggregate([bad]) == []


# ----------------------------------------------------------------------
# Guarded execution
# ----------------------------------------------------------------------
def test_run_cell_guarded_returns_identical_record():
    direct = execute_run(TINY)
    guarded = run_cell_guarded(TINY)
    assert guarded.result_key() == direct.result_key()


def test_run_cell_guarded_timeout_kills_cell():
    slow = TINY.with_(instructions=200_000, max_cycles=30_000_000)
    started = time.monotonic()
    with pytest.raises(CellTimeout):
        run_cell_guarded(slow, timeout=0.2)
    assert time.monotonic() - started < 30.0


def test_run_cell_guarded_surfaces_child_exception():
    bad = TINY.with_(instructions=400, config_overrides=(
        ("no_such_config_field", 1),))
    with pytest.raises(CellError) as info:
        run_cell_guarded(bad)
    assert info.value.traceback_text    # child traceback rides along


def test_run_cell_guarded_chaos_kill_then_clean_retry():
    chaos = ChaosConfig(kill=1.0, kill_until=1, seed=5)
    # Long enough that the 5-45 ms kill timer always lands mid-run.
    spec = TINY.with_(instructions=20_000)
    with pytest.raises(CellCrashed) as info:
        run_cell_guarded(spec, chaos=chaos, attempt=1)
    assert "-9" in str(info.value)      # SIGKILLed, mid-run
    record = run_cell_guarded(spec, chaos=chaos, attempt=2)
    assert record.result_key() == execute_run(spec).result_key()


# ----------------------------------------------------------------------
# Backends: name resolution + retry/quarantine policy
# ----------------------------------------------------------------------
def test_backend_registry_resolution():
    assert set(BACKENDS) == {"serial", "pool", "filequeue"}
    assert resolve_backend("auto", jobs=1) == "serial"
    assert resolve_backend("auto", jobs=4) == "pool"
    assert resolve_backend("filequeue", jobs=2) == "filequeue"
    with pytest.raises(ValueError):
        resolve_backend("slurm", jobs=1)
    assert Runner(jobs=1).backend == "serial"
    assert Runner(jobs=2).backend == "pool"


def test_serial_retry_then_success(monkeypatch, tmp_path):
    _FLAKY_CALLS["n"] = 0
    monkeypatch.setattr("repro.experiments.backends.execute_run",
                        _fail_first_attempt)
    store = ResultStore(str(tmp_path / "r.jsonl"))
    runner = Runner(jobs=1, backend="serial", store=store, retries=2,
                    backoff_s=0.01)
    records = runner.run([TINY])
    assert not records[0].failed
    assert runner.quarantined == 0
    assert runner.journal.counts()["pending"] == 0
    # The flake burned exactly one attempt before succeeding.
    events = load_fabric_events(store.path)
    assert [e["event"] for e in events if e["event"] in ("fail", "complete")
            ] == ["fail", "complete"]


def test_serial_exhausted_retries_quarantine_not_abort(monkeypatch, tmp_path):
    monkeypatch.setattr("repro.experiments.backends.execute_run", _fail_seed3)
    store = ResultStore(str(tmp_path / "r.jsonl"))
    runner = Runner(jobs=1, backend="serial", store=store, retries=1,
                    backoff_s=0.01)
    records = runner.run(_tiny_specs(3))
    assert [r.failed for r in records] == [False, False, True]
    assert records[2].failure["attempts"] == 2
    assert "poisoned cell" in records[2].failure["error"]
    assert runner.quarantined == 1
    assert runner.journal.counts() == {"pending": 0, "leased": 0}
    # The quarantined record persisted: the campaign is partial, not lost.
    assert ResultStore(store.path).get(records[2].spec_hash).failed


def test_pool_one_poisoned_cell_does_not_abort_in_flight(monkeypatch,
                                                         tmp_path):
    # Regression guard for the pre-fabric runner, whose first worker
    # exception aborted the harvest loop and lost every in-flight cell.
    monkeypatch.setattr("repro.experiments.backends.execute_run", _fail_seed3)
    store = ResultStore(str(tmp_path / "r.jsonl"))
    runner = Runner(jobs=2, backend="pool", store=store, retries=1,
                    backoff_s=0.01)
    records = runner.run(_tiny_specs(4))
    by_seed = {r.spec.seed: r for r in records}
    assert [by_seed[s].failed for s in (1, 2, 3, 4)] == [
        False, False, True, False]
    assert runner.quarantined == 1
    assert runner.journal.outstanding() == 0


def test_pool_falls_back_to_serial_when_the_pool_breaks(monkeypatch,
                                                        tmp_path):
    """A pool worker that dies outright breaks the pool; the coordinator
    finishes the campaign serially and settles every cell."""
    coordinator = os.getpid()

    def dies_in_a_pool_worker(spec):
        if spec.seed == 2 and os.getpid() != coordinator:
            os._exit(1)
        return _real_execute_run(spec)

    monkeypatch.setattr("repro.experiments.backends.execute_run",
                        dies_in_a_pool_worker)
    lines = []
    specs = _tiny_specs(4)
    store = ResultStore(str(tmp_path / "r.jsonl"))
    runner = Runner(jobs=2, backend="pool", store=store, retries=0,
                    progress=lines.append)
    records = runner.run(specs)
    assert any(line.startswith("process pool broke") and
               "falling back to serial execution" in line for line in lines)
    assert [r.result_key() for r in records] == \
        [_real_execute_run(s).result_key() for s in specs]
    assert {r.spec_hash for r in ResultStore(store.path)} == \
        {s.spec_hash for s in specs}
    assert runner.journal.outstanding() == 0


def _slow_execute_run(spec):
    """Module-level (picklable) stand-in: every cell takes a while."""
    time.sleep(0.3)
    return _real_execute_run(spec)


def test_pool_interrupt_cancels_queued_cells(monkeypatch, tmp_path):
    """Ctrl-C on a pool sweep drops the queue: the cells already running
    finish and persist, every other lease goes back to pending, and the
    interrupt propagates without waiting for the queue to run."""
    monkeypatch.setattr("repro.experiments.backends.execute_run",
                        _slow_execute_run)
    store = ResultStore(str(tmp_path / "r.jsonl"))
    interrupted = []

    def progress(line):
        if line.startswith("[") and not interrupted:
            interrupted.append(line)
            raise KeyboardInterrupt  # Ctrl-C on the first finished cell

    runner = Runner(jobs=2, backend="pool", store=store, progress=progress)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        runner.run(_tiny_specs(12))
    assert time.monotonic() - started < 30
    stored = len(ResultStore(store.path))
    counts = AttemptJournal.for_store(store.path).counts()
    assert stored < 12, "the interrupt ran the whole queue"
    assert stored + counts["pending"] == 12
    assert counts["leased"] == 0


def test_retry_failed_reruns_quarantined_cells(monkeypatch, tmp_path):
    monkeypatch.setattr("repro.experiments.backends.execute_run", _fail_seed3)
    store = ResultStore(str(tmp_path / "r.jsonl"))
    Runner(jobs=1, backend="serial", store=store, retries=0,
           backoff_s=0.01).run(_tiny_specs(3))
    assert ResultStore(store.path).get(TINY.with_(seed=3).spec_hash).failed

    # The cell is healthy now (the "flaky host" went away)...
    monkeypatch.setattr("repro.experiments.backends.execute_run",
                        _real_execute_run)
    # ...but a plain resume must NOT re-run it: quarantine is sticky.
    sticky = Runner(jobs=1, backend="serial", store=ResultStore(store.path))
    assert sticky.run(_tiny_specs(3))[2].failed
    assert sticky.executed == 0
    # --retry-failed clears the bay and heals the store.
    healed = Runner(jobs=1, backend="serial", store=ResultStore(store.path),
                    retry_failed=True)
    records = healed.run(_tiny_specs(3))
    assert [r.failed for r in records] == [False, False, False]
    assert not ResultStore(store.path).get(TINY.with_(seed=3).spec_hash).failed


def test_crash_loop_across_sessions_hits_attempt_budget(tmp_path):
    # A cell that SIGKILLs its session leaves a journal trail; after
    # max_attempts claims the next session quarantines it immediately
    # instead of crash-looping forever.
    store = ResultStore(str(tmp_path / "r.jsonl"))
    journal = AttemptJournal.for_store(store.path)
    journal.ensure_dirs()
    journal.seed([TINY])
    h = TINY.spec_hash
    for _ in range(3):                  # three sessions died mid-cell
        journal.claim_hash(h, "dead-session")
        journal.requeue_expired(0.0)
    runner = Runner(jobs=1, backend="serial", store=store, retries=2)
    records = runner.run([TINY])
    assert records[0].failed
    assert "crash loop" in records[0].failure["error"]


def test_journal_recovery_requeues_stale_leases(tmp_path):
    store = ResultStore(str(tmp_path / "r.jsonl"))
    journal = AttemptJournal.for_store(store.path)
    journal.ensure_dirs()
    journal.seed(_tiny_specs(2))
    journal.claim("killed-session")     # died holding a lease
    runner = Runner(jobs=1, backend="serial", store=store)
    records = runner.run(_tiny_specs(2))
    assert all(not r.failed for r in records)
    assert runner.journal.outstanding() == 0


@pytest.mark.parametrize("outcome", ["healthy", "quarantined"])
def test_resume_retires_the_lease_of_a_committed_cell(outcome, tmp_path):
    # The session committed the cell's record, then died before it
    # retired the lease.  The resume runs nothing and retires the lease.
    store = ResultStore(str(tmp_path / "r.jsonl"))
    journal = AttemptJournal.for_store(store.path)
    journal.ensure_dirs()
    journal.seed([TINY])
    journal.claim_hash(TINY.spec_hash, "dead")
    committed = execute_run(TINY) if outcome == "healthy" else \
        RunRecord.quarantined(TINY, "CellCrashed: oom", attempts=3)
    store.append(committed)
    runner = Runner(jobs=1, backend="serial", store=ResultStore(store.path))
    records = runner.run([TINY])
    assert runner.executed == 0
    assert records[0].failed == committed.failed
    assert records[0].result_key() == committed.result_key()
    assert journal.counts() == {"pending": 0, "leased": 0}
    assert load_fabric_events(store.path)[-1]["event"] == (
        "complete" if outcome == "healthy" else "quarantine")


def test_with_shards_reads_what_merge_shards_writes(tmp_path):
    """One rule for both: the first record for a hash wins, except that a
    real record displaces a quarantined placeholder."""
    path = str(tmp_path / "r.jsonl")
    a, b = TINY.with_(seed=1), TINY.with_(seed=2)
    store = ResultStore(path)
    store.append(RunRecord.quarantined(a, "boom"))
    ResultStore(shard_path(path, "w0")).append(execute_run(a))
    ResultStore(shard_path(path, "w0")).append(
        RunRecord.quarantined(b, "first"))
    ResultStore(shard_path(path, "w1")).append(
        RunRecord.quarantined(b, "second"))
    seen = store.with_shards()
    assert not seen[a.spec_hash].failed
    assert seen[b.spec_hash].failure["error"] == "first"
    assert len(list_shards(path)) == 2 and len(ResultStore(path)) == 1
    store.merge_shards()
    assert {h: r.to_dict() for h, r in seen.items()} == \
        {r.spec_hash: r.to_dict() for r in ResultStore(path)}


def _drain_into_a_shard(store_path, specs):
    """A filequeue campaign whose coordinator died after its worker
    drained every cell: the records are in a shard, never merged."""
    journal = AttemptJournal.for_store(store_path)
    journal.ensure_dirs()
    journal.seed(specs)
    assert run_worker(store_path, worker_id="w0", retries=0) == len(specs)
    assert len(ResultStore(store_path)) == 0
    return ResultStore(shard_path(store_path, "w0")).records()


@pytest.mark.parametrize("backend", ["serial", "pool", "filequeue"])
def test_resume_reuses_records_left_in_worker_shards(backend, tmp_path):
    store_path = str(tmp_path / "r.jsonl")
    specs = _tiny_specs(3)
    drained = _drain_into_a_shard(store_path, specs)
    runner = Runner(jobs=2, backend=backend, store=ResultStore(store_path))
    records = runner.run(specs)
    assert runner.executed == 0 and runner.skipped == 3
    assert sorted(r.spec_hash for r in drained) == \
        sorted(r.spec_hash for r in records)
    assert list_shards(store_path) == []
    assert len(ResultStore(store_path)) == 3    # folded into the store


# ----------------------------------------------------------------------
# filequeue: elastic workers, shards, exactly-once completion
# ----------------------------------------------------------------------
def test_run_worker_drains_journal_into_shard(tmp_path):
    store_path = str(tmp_path / "r.jsonl")
    journal = AttemptJournal.for_store(store_path)
    journal.ensure_dirs()
    specs = _tiny_specs(3)
    journal.seed(specs)
    executed = run_worker(store_path, worker_id="w0", lease_ttl=30.0,
                          retries=0)
    assert executed == 3
    assert journal.outstanding() == 0
    shard = ResultStore(shard_path(store_path, "w0"))
    assert {r.spec_hash for r in shard} == {s.spec_hash for s in specs}
    # The main store is untouched until the coordinator merges.
    assert len(ResultStore(store_path)) == 0
    merged = ResultStore(store_path).merge_shards()
    assert merged["merged"] == 3 and merged["shards"] == 1
    assert list_shards(store_path) == []


def test_run_worker_max_cells_bounds_one_worker(tmp_path):
    store_path = str(tmp_path / "r.jsonl")
    journal = AttemptJournal.for_store(store_path)
    journal.ensure_dirs()
    journal.seed(_tiny_specs(3))
    assert run_worker(store_path, worker_id="w0", max_cells=1) == 1
    assert journal.outstanding() == 2


def test_run_worker_backs_off_on_the_runner_schedule(monkeypatch, tmp_path):
    """A filequeue worker waits exactly as long between attempts as the
    serial and pool backends: one schedule, capped at 30 s."""
    monkeypatch.setattr("repro.experiments.backends.execute_run", _fail_seed3)
    slept = []
    monkeypatch.setattr(time, "sleep", slept.append)
    store_path = str(tmp_path / "r.jsonl")
    journal = AttemptJournal.for_store(store_path)
    journal.ensure_dirs()
    journal.seed([TINY.with_(seed=3)])
    assert run_worker(store_path, worker_id="w0", retries=5,
                      backoff_s=4) == 1
    assert slept == [4, 8, 16, 30, 30]
    (failed,) = ResultStore(shard_path(store_path, "w0")).records()
    assert failed.failed and failed.failure["attempts"] == 6
    assert journal.counts() == {"pending": 0, "leased": 0}


def test_filequeue_backend_matches_serial(tmp_path):
    specs = _tiny_specs(4)
    baseline = Runner(jobs=1, backend="serial").run(specs)
    store = ResultStore(str(tmp_path / "fq.jsonl"))
    runner = Runner(jobs=2, backend="filequeue", store=store, lease_ttl=30.0)
    records = runner.run(specs)
    assert [r.result_key() for r in records] == \
        [r.result_key() for r in baseline]
    assert runner.journal.outstanding() == 0
    assert list_shards(store.path) == []
    # Exactly-once at the store: one line per spec.
    with open(store.path) as fh:
        lines = [json.loads(line) for line in fh]
    assert sorted(r["spec_hash"] for r in lines) == \
        sorted(s.spec_hash for s in specs)


def test_filequeue_runs_without_a_store(monkeypatch, tmp_path):
    # Without a store the campaign runs on a private temporary one, which
    # is gone when run() returns.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    specs = _tiny_specs(3)
    runner = Runner(jobs=2, backend="filequeue")
    records = runner.run(specs)
    assert [r.result_key() for r in records] == \
        [execute_run(s).result_key() for s in specs]
    assert runner.store is None and runner.journal is None
    assert list(tmp_path.glob("repro-campaign-*")) == []


def test_external_worker_joins_filequeue_campaign(tmp_path):
    # An external `repro worker` process (here: run_worker in a fork)
    # joins mid-campaign and the coordinator still converges.
    store_path = str(tmp_path / "r.jsonl")
    journal = AttemptJournal.for_store(store_path)
    journal.ensure_dirs()
    specs = _tiny_specs(4)
    journal.seed(specs)
    ctx = multiprocessing.get_context("fork")
    external = ctx.Process(
        target=run_worker, kwargs=dict(
            store_path=store_path, worker_id="ext-1", lease_ttl=30.0))
    external.start()
    local = run_worker(store_path, worker_id="local", lease_ttl=30.0)
    external.join(timeout=120)
    assert external.exitcode == 0
    assert journal.outstanding() == 0
    store = ResultStore(store_path)
    stats = store.merge_shards()
    assert stats["merged"] == len(specs)    # both shards fold in, no dupes
    assert {r.spec_hash for r in store} == {s.spec_hash for s in specs}
    assert local + stats["merged"] >= len(specs)


def test_filequeue_coordinator_heartbeats_while_it_waits(tmp_path):
    # The coordinator waits on its workers; each wait that times out
    # while a worker is alive prints one heartbeat line.
    lines = []
    specs = [TINY.with_(instructions=4_000, seed=s) for s in range(1, 9)]
    store = ResultStore(str(tmp_path / "fq.jsonl"))
    runner = Runner(jobs=2, backend="filequeue", store=store,
                    heartbeat_s=0.05, progress=lines.append)
    records = runner.run(specs)
    assert any(line.startswith("heartbeat: ") for line in lines)
    assert all(r.completed and not r.failed for r in records)
    assert runner.journal.outstanding() == 0


def test_filequeue_coordinator_drains_when_every_worker_dies(monkeypatch,
                                                             tmp_path):
    coordinator = os.getpid()

    def dying_worker(*args, **kwargs):
        if os.getpid() != coordinator:
            os._exit(0)                 # a local worker dies before claiming
        return run_worker(*args, **kwargs)

    monkeypatch.setattr("repro.experiments.backends.run_worker",
                        dying_worker)
    lines = []
    specs = _tiny_specs(3)
    store = ResultStore(str(tmp_path / "fq.jsonl"))
    runner = Runner(jobs=2, backend="filequeue", store=store,
                    progress=lines.append)
    records = runner.run(specs)
    assert any("draining in-process" in line for line in lines)
    assert [r.result_key() for r in records] == \
        [execute_run(s).result_key() for s in specs]
    assert runner.journal.counts() == {"pending": 0, "leased": 0}
    assert list_shards(store.path) == []


# ----------------------------------------------------------------------
# Runner surface compatibility
# ----------------------------------------------------------------------
def test_runner_legacy_surface_unchanged():
    # The pre-fabric call sites (benchmarks, examples) construct
    # Runner(jobs=..., store=..., progress=...) — that must keep working
    # with identical semantics, and pool/retries=0 is the oracle config.
    runner = Runner(jobs=1)
    records = runner.run([TINY, TINY])
    assert runner.executed == 1 and records[0] is records[1]
    oracle = Runner(jobs=2, backend="pool", retries=0)
    assert [r.result_key() for r in oracle.run(_tiny_specs(2))] == \
        [r.result_key() for r in Runner(jobs=1).run(_tiny_specs(2))]
    with pytest.raises(ValueError):
        Runner(jobs=0)
    with pytest.raises(ValueError):
        Runner(retries=-1)
    with pytest.raises(ValueError):
        Runner(cell_timeout=0.0)


def test_runner_and_worker_reject_bad_settings(tmp_path):
    store_path = str(tmp_path / "r.jsonl")
    for bad in (dict(retries=-1), dict(cell_timeout=0.0),
                dict(cell_timeout=-1.0), dict(lease_ttl=0.0),
                dict(lease_ttl=-1.0), dict(lease_ttl=float("nan")),
                dict(backoff_s=-1.0)):
        (name,) = bad
        with pytest.raises(ValueError, match=name):
            Runner(**bad)
        with pytest.raises(ValueError, match=name):
            run_worker(store_path, **bad)
    with pytest.raises(ValueError, match="heartbeat_s"):
        Runner(heartbeat_s=-5)
    # The worker checks its settings before it creates the journal.
    assert not AttemptJournal.for_store(store_path).exists()
