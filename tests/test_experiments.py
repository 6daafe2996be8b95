"""Tests for the `repro.experiments` campaign engine."""

import json

import pytest

from repro.experiments import (
    ResultStore,
    Runner,
    RunRecord,
    RunSpec,
    Sweep,
    aggregate,
    build_machine,
    execute_run,
    summarize,
    summary_rows,
    t_critical_95,
)

# A spec small enough that a run takes ~50 ms.
TINY = RunSpec(workload="apache", instructions=400, warmup=0, preset="tiny",
               scale=64, max_cycles=2_000_000)


# ----------------------------------------------------------------------
# Spec + sweep expansion
# ----------------------------------------------------------------------
def test_grid_expansion_shape_and_determinism():
    sweep = Sweep(base=TINY,
                  grid={"clb_kb": [8, 16], "workload": ["apache", "jbb"]},
                  seeds=3)
    specs = sweep.expand()
    assert len(specs) == 2 * 2 * 3 == sweep.cells() * 3
    # Pure function of its inputs: identical on re-expansion.
    assert specs == sweep.expand()
    assert [s.spec_hash for s in specs] == [s.spec_hash
                                            for s in sweep.expand()]
    # Seeds innermost, grid order preserved, alias applied.
    assert [s.seed for s in specs[:3]] == [1, 2, 3]
    assert specs[0].clb_bytes == 8 * 1024
    assert {s.workload for s in specs} == {"apache", "jbb"}
    # All cells distinct, all specs distinct.
    assert len({s.spec_hash for s in specs}) == len(specs)
    assert len({s.cell_hash for s in specs}) == 4


def test_sweep_rejects_bad_axes():
    with pytest.raises(ValueError):
        Sweep(base=TINY, grid={"clb_kb": []}).expand()
    with pytest.raises(ValueError):
        Sweep(base=TINY, seeds=0).expand()
    with pytest.raises(TypeError):
        Sweep(base=TINY, grid={"no_such_field": [1]}).expand()


def test_spec_hash_stability():
    # The hash is a pure content hash: insensitive to override ordering,
    # sensitive to every field, stable across sessions (golden value —
    # changing canonicalisation invalidates every existing ResultStore,
    # so it must be a deliberate act).
    a = RunSpec(config_overrides=(("x", 1), ("y", 2)))
    b = RunSpec(config_overrides=(("y", 2), ("x", 1)))
    assert a.spec_hash == b.spec_hash
    assert a.spec_hash != RunSpec(config_overrides=(("x", 2),)).spec_hash
    assert RunSpec().spec_hash != RunSpec(seed=2).spec_hash
    # Seed is excluded from the cell, included in the run identity.
    assert RunSpec().cell_hash == RunSpec(seed=2).cell_hash
    assert RunSpec().spec_hash == "50268841473bc14e"


def test_default_shape_specs_keep_pre_torus_hashes():
    # torus_width/torus_height were added after ResultStores existed; a
    # default-shape spec must hash (and canonicalise) exactly as before,
    # or every existing campaign store silently re-executes.  These are
    # golden values captured before the fields existed.
    assert RunSpec().spec_hash == "50268841473bc14e"
    canon = RunSpec().canonical()
    assert "torus_width" not in canon and "torus_height" not in canon
    explicit = RunSpec(torus_width=4, torus_height=4)
    assert explicit.spec_hash != RunSpec().spec_hash  # axes are identity
    assert explicit.canonical()["torus_width"] == 4
    # Round-trips: old records (no shape keys) and new ones both load.
    assert RunSpec.from_dict(canon) == RunSpec()
    assert RunSpec.from_dict(explicit.canonical()) == explicit


def test_torus_axis_validation_and_alias():
    spec = RunSpec().with_(torus="4x8")
    assert (spec.torus_width, spec.torus_height) == (4, 8)
    assert RunSpec().with_(torus=(2, 4)).torus_height == 4
    with pytest.raises(ValueError):
        RunSpec(torus_width=4)            # height missing
    with pytest.raises(ValueError):
        RunSpec(torus_width=1, torus_height=4)
    sweep = Sweep(base=TINY, grid={"torus": ["2x2", "2x4"]}, seeds=2)
    specs = sweep.expand()
    assert [(s.torus_width, s.torus_height) for s in specs] == \
        [(2, 2), (2, 2), (2, 4), (2, 4)]
    assert len({s.cell_hash for s in specs}) == 2


def test_execute_run_on_non_default_shape():
    record = execute_run(TINY.with_(torus="2x4", instructions=300))
    assert record.completed and not record.crashed
    # 8 CPUs x 300 instructions, warmup none.
    assert record.target_instructions == 2400


def test_spec_roundtrips_through_json():
    spec = TINY.with_(clb_kb=16, fault="transient", fault_period=9_000,
                      config_overrides=(("max_recoveries", 7),))
    again = RunSpec.from_dict(json.loads(json.dumps(spec.canonical())))
    assert again == spec
    with pytest.raises(ValueError):
        RunSpec.from_dict({"bogus_field": 1})
    with pytest.raises(ValueError):
        RunSpec(fault="meteor")


def test_build_machine_names_unknown_config_overrides():
    """A spec naming a removed SystemConfig flag still loads (stores keep
    old records) but fails to build with every bad key named."""
    spec = TINY.with_(config_overrides=(("calendar_kernel", False),
                                        ("max_recoveries", 7),
                                        ("no_such_knob", 1)))
    with pytest.raises(ValueError, match="calendar_kernel, no_such_knob$"):
        build_machine(spec)


# ----------------------------------------------------------------------
# Execution: store resume + serial/parallel equivalence
# ----------------------------------------------------------------------
def _tiny_specs(n_seeds=2):
    return Sweep(base=TINY, grid={"workload": ["apache", "jbb"]},
                 seeds=n_seeds).expand()


def test_resume_skips_completed_runs(tmp_path):
    path = str(tmp_path / "results.jsonl")
    specs = _tiny_specs()

    first = Runner(jobs=1, store=ResultStore(path))
    first.run(specs[:3])
    assert first.executed == 3 and first.skipped == 0

    second = Runner(jobs=1, store=ResultStore(path))
    records = second.run(specs)
    assert second.executed == 1          # only the one missing run
    assert second.skipped == 3
    assert [r.cached for r in records] == [True, True, True, False]

    third = Runner(jobs=1, store=ResultStore(path))
    third.run(specs)
    assert third.executed == 0           # fully resumed: zero re-execution
    with open(path) as fh:
        assert len(fh.readlines()) == len(specs)


def test_store_tolerates_torn_final_line(tmp_path):
    path = str(tmp_path / "results.jsonl")
    store = ResultStore(path)
    record = execute_run(TINY)
    store.append(record)
    with open(path, "a") as fh:
        fh.write('{"spec": {"workload": "apa')   # killed mid-write
    again = ResultStore(path)
    assert len(again) == 1
    assert again.malformed_lines == 1
    assert again.get(TINY.spec_hash).result_key() == record.result_key()
    # Appending after a torn line must seal it, not merge into it.
    record2 = execute_run(TINY.with_(seed=2))
    again.append(record2)
    sealed = ResultStore(path)
    assert len(sealed) == 2
    assert sealed.get(record2.spec_hash).result_key() == record2.result_key()


def test_store_duplicate_hash_rows_newest_wins(tmp_path):
    # Crash recovery can legitimately re-execute a cell (the lease
    # expired but the worker had already appended): the store must read
    # duplicate spec-hash rows as "newest wins", matching append order.
    path = str(tmp_path / "results.jsonl")
    record = execute_run(TINY)
    stale = json.loads(json.dumps(record.to_dict()))
    stale["cycles"] = 1              # an older, superseded line
    with open(path, "w") as fh:
        fh.write(json.dumps(stale, sort_keys=True) + "\n")
        fh.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
    store = ResultStore(path)
    assert len(store) == 1
    assert store.get(TINY.spec_hash).cycles == record.cycles
    # compact() squeezes the duplicate line out of the file.
    store.compact([TINY.spec_hash])
    with open(path) as fh:
        assert len(fh.readlines()) == 1
    assert ResultStore(path).get(TINY.spec_hash).cycles == record.cycles


def test_store_append_torn_models_mid_write_death(tmp_path):
    # append_torn is the chaos harness's crash model: a prefix of the
    # line, no newline, record not registered — the loader must count it
    # malformed and the next append must seal it.
    path = str(tmp_path / "results.jsonl")
    store = ResultStore(path)
    lost = execute_run(TINY)
    store.append_torn(lost)
    assert store.malformed_lines == 1
    reloaded = ResultStore(path)
    assert len(reloaded) == 0 and reloaded.malformed_lines == 1
    survivor = execute_run(TINY.with_(seed=2))
    reloaded.append(survivor)
    sealed = ResultStore(path)
    assert len(sealed) == 1
    assert sealed.get(survivor.spec_hash).result_key() == \
        survivor.result_key()


def _shard_worker_main(store_path, worker_id, seeds):
    # Child-process body for the two-writer shard test (module-level for
    # picklability under any start method).
    from repro.experiments import shard_path

    shard = ResultStore(shard_path(store_path, worker_id))
    for seed in seeds:
        shard.append(execute_run(TINY.with_(seed=seed)))


def test_two_processes_shard_then_merge_by_manifest_hash(tmp_path):
    # The filequeue commit path, end to end with real processes: two
    # workers append to private shards concurrently (no write contention
    # on the main store), then the coordinator folds the shards in,
    # keeping only manifest-accounted hashes.
    import multiprocessing

    from repro.experiments import CampaignManifest, list_shards

    path = str(tmp_path / "results.jsonl")
    sweep = Sweep(base=TINY, seeds=[1, 2, 3])      # seed 4 is unmanifested
    manifest = CampaignManifest.record(path, sweep)
    ctx = multiprocessing.get_context("fork")
    workers = [
        ctx.Process(target=_shard_worker_main, args=(path, "w0", [1, 2])),
        ctx.Process(target=_shard_worker_main, args=(path, "w1", [2, 3, 4])),
    ]
    for proc in workers:
        proc.start()
    for proc in workers:
        proc.join(timeout=120)
        assert proc.exitcode == 0
    assert len(list_shards(path)) == 2
    store = ResultStore(path)
    stats = store.merge_shards(manifest.spec_hashes())
    assert stats["shards"] == 2
    assert stats["merged"] == 3          # seeds 1..3, deduped
    assert stats["duplicates"] == 1      # seed 2 ran on both workers
    assert stats["dropped"] == 1         # seed 4: no campaign accounts for it
    assert list_shards(path) == []       # merged shards are consumed
    assert {r.spec.seed for r in ResultStore(path)} == {1, 2, 3}


def test_serial_and_parallel_runs_agree():
    specs = _tiny_specs()
    serial = Runner(jobs=1).run(specs)
    parallel = Runner(jobs=2).run(specs)
    assert [r.result_key() for r in serial] == \
        [r.result_key() for r in parallel]
    assert all(not r.crashed and r.completed for r in serial)


def test_runner_deduplicates_repeated_specs():
    runner = Runner(jobs=1)
    records = runner.run([TINY, TINY])
    assert runner.executed == 1
    assert records[0] is records[1]


def test_record_adapts_to_analysis_run_result():
    record = execute_run(TINY)
    result = record.to_run_result()
    assert result.cycles == record.cycles
    assert result.completed and not result.crashed
    assert result.stats["peak_cache_clb_entries"] >= 0


# ----------------------------------------------------------------------
# Aggregation math
# ----------------------------------------------------------------------
def _fake_record(seed, cycles, committed=1000, crashed=False, cell_spec=TINY):
    spec = cell_spec.with_(seed=seed)
    return RunRecord(
        spec=spec, spec_hash=spec.spec_hash, cycles=cycles,
        committed_instructions=committed, target_instructions=1600,
        completed=not crashed, crashed=crashed, crash_reason=None,
        recoveries=0, lost_instructions=0, reexecuted_instructions=0,
    )


def test_ci_aggregation_math():
    records = [_fake_record(s, c) for s, c in
               zip((1, 2, 3, 4), (100, 110, 90, 100))]
    (cell,) = aggregate(records)
    s = cell.metrics["cycles"]
    assert s.n == 4 and s.mean == 100.0
    assert s.minimum == 90 and s.maximum == 110
    # Sample stddev of [100,110,90,100] = sqrt(200/3); t(3, .975)=3.182.
    expected_std = (200 / 3) ** 0.5
    assert s.stddev == pytest.approx(expected_std)
    assert s.ci95 == pytest.approx(3.182 * expected_std / 2)
    # work_rate of a crashed run is 0 and crashes are counted.
    crashed = [_fake_record(1, 100), _fake_record(2, 100, crashed=True)]
    (cell,) = aggregate(crashed)
    assert cell.crashes == 1
    assert cell.metrics["work_rate"].minimum == 0.0


def test_summarize_degenerate_inputs():
    empty = summarize([])
    assert (empty.n, empty.mean, empty.ci95) == (0, 0.0, 0.0)
    single = summarize([42])
    assert (single.n, single.mean, single.stddev, single.ci95) == \
        (1, 42.0, 0.0, 0.0)


def test_t_critical_interpolation():
    assert t_critical_95(1) == pytest.approx(12.706)
    assert t_critical_95(4) == pytest.approx(2.776)
    assert t_critical_95(14) == pytest.approx(2.179)   # nearest df below
    assert t_critical_95(10_000) == pytest.approx(2.042)


def test_varied_keys_spans_mixed_shape_stores():
    # Optional canonical fields are absent from default-shape cells; a
    # store mixing pre-shape and shape-sweep records must still report
    # the shape axes as varying.
    from repro.experiments import varied_keys

    records = [_fake_record(1, 100),
               _fake_record(1, 120, cell_spec=TINY.with_(torus="2x2")),
               _fake_record(1, 140, cell_spec=TINY.with_(torus="4x8"))]
    keys = varied_keys(aggregate(records))
    assert "torus_width" in keys and "torus_height" in keys


def test_aggregation_groups_by_cell_and_tables_render():
    records = []
    for clb_kb in (8, 16):
        for seed in (1, 2, 3):
            records.append(_fake_record(seed, 100 * clb_kb + seed,
                                        cell_spec=TINY.with_(clb_kb=clb_kb)))
    cells = aggregate(records)
    assert [c.n for c in cells] == [3, 3]
    assert cells[0].seeds == [1, 2, 3]
    header, rows = summary_rows(cells, metric="cycles")
    assert "clb_bytes" in header
    assert len(rows) == 2
