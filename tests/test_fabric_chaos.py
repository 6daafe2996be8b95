"""Chaos-equivalence guards: a sweep under injected faults must converge
to the *same store* as a clean run.

This is the fabric's acceptance bar (mirroring the simulator's own
fault-injection figures): worker SIGKILLs mid-cell, heartbeat stalls
(lease expiry + duplicate execution), and torn shard appends may cost
retries and wall-clock, but never results — exactly-once completion at
the store, bit-identical result keys, no quarantined survivors, journal
drained.  Runs are deterministic functions of their specs, which is what
makes "re-execute anywhere, dedupe by spec hash" a sound recovery
strategy.
"""

import json

from repro.experiments import (
    ChaosConfig,
    ResultStore,
    Runner,
    RunSpec,
    list_shards,
)
from repro.obs import fabric_summary, load_fabric_events

#: Long enough (~0.2 s) that an armed 5-45 ms chaos kill always lands
#: mid-simulation instead of racing the cell's natural completion.
TINY = RunSpec(workload="apache", instructions=20_000, warmup=0, preset="tiny",
               scale=64, max_cycles=2_000_000)


def _specs(n=4):
    return [TINY.with_(seed=s) for s in range(1, n + 1)]


def _store_fingerprint(path):
    """(spec_hash -> result_key) for every line actually in the file."""
    out = {}
    with open(path) as fh:
        for line in fh:
            row = json.loads(line)
            out[row["spec_hash"]] = {
                k: row[k] for k in ("cycles", "committed_instructions",
                                    "completed", "crashed", "recoveries",
                                    "lost_instructions")}
    return out


def _assert_converged(runner, store, baseline, specs):
    got = _store_fingerprint(store.path)
    assert sorted(got) == sorted(s.spec_hash for s in specs)  # no lost/extra
    for record in baseline:
        assert got[record.spec_hash] == {
            "cycles": record.cycles,
            "committed_instructions": record.committed_instructions,
            "completed": record.completed,
            "crashed": record.crashed,
            "recoveries": record.recoveries,
            "lost_instructions": record.lost_instructions,
        }
    assert runner.quarantined == 0
    assert runner.journal.counts() == {"pending": 0, "leased": 0}
    assert list_shards(store.path) == []


def test_pool_sweep_survives_first_attempt_kills(tmp_path):
    specs = _specs(4)
    baseline = Runner(jobs=1, backend="serial").run(specs)
    store = ResultStore(str(tmp_path / "chaos.jsonl"))
    runner = Runner(jobs=2, backend="pool", store=store, retries=2,
                    backoff_s=0.05,
                    chaos=ChaosConfig(kill=1.0, kill_until=1, seed=7))
    records = runner.run(specs)
    # Every cell was SIGKILLed once, retried clean, and matches baseline.
    assert [r.result_key() for r in records] == \
        [r.result_key() for r in baseline]
    _assert_converged(runner, store, baseline, specs)
    summary = fabric_summary(load_fabric_events(store.path))
    assert summary["fails"] == len(specs)       # one kill per cell
    assert summary["quarantines"] == 0


def test_filequeue_sweep_survives_kill_stall_and_torn_chaos(tmp_path):
    specs = _specs(4)
    baseline = Runner(jobs=1, backend="serial").run(specs)
    store = ResultStore(str(tmp_path / "chaos.jsonl"))
    runner = Runner(jobs=2, backend="filequeue", store=store, retries=3,
                    backoff_s=0.05, lease_ttl=5.0,
                    # Every first attempt is killed, so heartbeat stalls
                    # and torn appends are drawn for second attempts; a
                    # third attempt is always clean.
                    chaos=ChaosConfig(kill=1.0, kill_until=1, stall=0.5,
                                      torn=0.5, stall_until=2, torn_until=2,
                                      seed=11))
    records = runner.run(specs)
    assert [r.result_key() for r in records] == \
        [r.result_key() for r in baseline]
    _assert_converged(runner, store, baseline, specs)
    summary = fabric_summary(load_fabric_events(store.path))
    assert summary["fails"] >= len(specs)       # kills + torn appends
    assert summary["completes"] == len(specs)   # but exactly-once commits


def test_chaotic_store_resumes_clean(tmp_path):
    # After a chaotic campaign, a clean re-entry must be a pure resume:
    # zero re-execution, identical records back.
    specs = _specs(3)
    store = ResultStore(str(tmp_path / "chaos.jsonl"))
    first = Runner(jobs=2, backend="pool", store=store, retries=2,
                   backoff_s=0.05,
                   chaos=ChaosConfig(kill=1.0, kill_until=1, seed=3))
    first_records = first.run(specs)
    again = Runner(jobs=2, backend="pool", store=ResultStore(store.path))
    records = again.run(specs)
    assert again.executed == 0 and again.skipped == len(specs)
    assert [r.result_key() for r in records] == \
        [r.result_key() for r in first_records]
