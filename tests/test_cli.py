"""Tests for the command-line interface."""

import io
import os

import pytest

from repro.cli import build_parser, main
from repro.experiments import AttemptJournal, RunSpec, shard_path


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_config_scaled_and_paper():
    code, text = run_cli(["config"])
    assert code == 0
    assert "Checkpoint Log Buffer" in text
    code, text = run_cli(["config", "--paper"])
    assert code == 0
    assert "512 kbytes" in text
    assert "100,000 cycles" in text


def test_character_lists_all_workloads():
    code, text = run_cli(["character"])
    assert code == 0
    for name in ("jbb", "apache", "slashcode", "oltp", "barnes"):
        assert name in text


def test_run_fault_free_small():
    code, text = run_cli([
        "run", "--workload", "apache", "--instructions", "2500",
        "--warmup", "0", "--scale", "64",
    ])
    assert code == 0
    assert "completed" in text and "True" in text
    assert "recoveries" in text


def test_run_transient_fault_survives():
    code, text = run_cli([
        "run", "--workload", "oltp", "--instructions", "3000",
        "--warmup", "0", "--scale", "64",
        "--fault", "transient", "--period", "30000", "--fault-at", "15000",
    ])
    assert code == 0
    assert "CRASH" not in text


def test_run_unprotected_with_fault_reports_expected_crash():
    code, text = run_cli([
        "run", "--workload", "oltp", "--instructions", "50000",
        "--warmup", "0", "--scale", "64", "--unprotected",
        "--fault", "transient", "--period", "30000", "--fault-at", "15000",
    ])
    assert code == 0  # crash is the expected baseline outcome
    assert "CRASH" in text


def test_run_with_overrides():
    code, text = run_cli([
        "run", "--workload", "jbb", "--instructions", "2000",
        "--warmup", "0", "--scale", "64",
        "--interval", "5000", "--clb-kb", "16",
    ])
    assert code == 0


def test_sweep_runs_resumes_and_summarises(tmp_path):
    out_path = str(tmp_path / "sweep.jsonl")
    argv = [
        "sweep", "--grid", "workload=apache,oltp", "--grid", "clb_kb=8,16",
        "--instructions", "1200", "--scale", "64", "--seeds", "2",
        "--jobs", "1", "--out", out_path,
    ]
    code, text = run_cli(argv)
    assert code == 0
    assert "4 cells x 2 seeds = 8 runs" in text
    assert "sweep summary" in text
    with open(out_path) as fh:
        assert len(fh.readlines()) == 8

    code, text = run_cli(argv)
    assert code == 0
    assert "8 of 8 runs already complete" in text
    assert "executed 0 runs" in text
    with open(out_path) as fh:
        assert len(fh.readlines()) == 8  # nothing re-executed or re-written


def test_run_on_non_default_torus():
    code, text = run_cli([
        "run", "--workload", "apache", "--instructions", "800",
        "--warmup", "0", "--scale", "64", "--torus", "2x4",
    ])
    assert code == 0
    assert "completed" in text and "True" in text


def test_sweep_over_torus_shapes(tmp_path):
    out_path = str(tmp_path / "shapes.jsonl")
    code, text = run_cli([
        "sweep", "--grid", "torus=2x2,2x4", "--instructions", "500",
        "--scale", "64", "--seeds", "2", "--jobs", "1", "--out", out_path,
    ])
    assert code == 0
    assert "2 cells x 2 seeds = 4 runs" in text
    # The summary table splits cells along the shape axes.
    assert "torus_width" in text or "torus_height" in text


def test_sweep_status_reports_progress(tmp_path):
    out_path = str(tmp_path / "status.jsonl")
    base = ["--grid", "workload=apache,oltp", "--instructions", "600",
            "--scale", "64", "--seeds", "2", "--out", out_path]
    # Half the campaign: run only one workload's cells.
    code, _ = run_cli(["sweep", "--grid", "workload=apache",
                       "--instructions", "600", "--scale", "64",
                       "--seeds", "2", "--out", out_path])
    assert code == 0
    code, text = run_cli(["sweep", "--status"] + base)
    assert code == 0
    assert "campaign status" in text
    assert "2/4 complete, 2 pending" in text      # runs
    assert "1/2 complete, 1 pending" in text      # cells
    assert "workload" in text
    # Status without a grid just summarises the store.
    code, text = run_cli(["sweep", "--status", "--out", out_path])
    assert code == 0
    assert "completed runs" in text
    # Status is read-only and refuses to guess the store path.
    code, text = run_cli(["sweep", "--status"])
    assert code == 1
    assert "--out" in text


def test_sweep_status_counts_records_in_worker_shards(tmp_path):
    # A filequeue coordinator that died after its workers drained the
    # campaign leaves every record in a shard, none in the store.
    out_path = str(tmp_path / "shards.jsonl")
    argv = ["--grid", "workload=apache", "--instructions", "300",
            "--warmup", "0", "--scale", "64", "--torus", "2x2",
            "--seeds", "3", "--out", out_path]
    assert run_cli(["sweep"] + argv)[0] == 0
    os.replace(out_path, shard_path(out_path, "w0"))
    code, text = run_cli(["sweep", "--status"] + argv)
    assert code == 0
    assert "3/3 complete, 0 pending" in text
    assert "3 (0 pending)" in text                # manifest runs
    assert "unmerged shards" in text


def test_sweep_rejects_bad_grid():
    code, text = run_cli(["sweep", "--grid", "no_such_field=1,2",
                          "--instructions", "100"])
    assert code == 1
    assert "bad sweep" in text


def test_zero_fault_period_is_rejected_not_defaulted():
    code, text = run_cli(["run", "--instructions", "100", "--scale", "64",
                          "--fault", "transient", "--period", "0"])
    assert code == 1
    assert "bad run" in text and "fault_period" in text
    code, text = run_cli(["sweep", "--instructions", "100", "--scale", "64",
                          "--fault", "transient",
                          "--grid", "fault_period=30000,0"])
    assert code == 1
    assert "bad sweep" in text and "fault_period" in text


def test_bad_scale_warmup_and_retries_are_input_errors():
    for flag, value in (("--scale", "0"), ("--scale", "-4"),
                        ("--warmup", "-3")):
        argv = ["--instructions", "100", "--scale", "64", flag, value]
        code, text = run_cli(["run"] + argv)
        assert code == 1
        assert "bad run" in text and flag.lstrip("-") in text
        code, text = run_cli(["sweep"] + argv)
        assert code == 1
        assert "bad sweep" in text and flag.lstrip("-") in text
    code, text = run_cli(["sweep", "--instructions", "100", "--scale", "64",
                          "--retries", "-1"])
    assert code == 1
    assert "bad sweep" in text and "retries" in text
    for value in ("0", "-4"):
        code, text = run_cli(["config", "--scale", value])
        assert code == 1
        assert "bad config" in text and "scale" in text


def test_negative_fault_cycle_is_a_bad_run():
    """It used to end in the kernel's traceback when the fault was armed."""
    for fault in ("transient", "switch"):
        code, text = run_cli(["run", "--instructions", "500", "--warmup", "0",
                              "--scale", "64", "--torus", "2x2",
                              "--fault", fault, "--fault-at", "-5"])
        assert code == 1
        assert "bad run" in text and "fault_at" in text


def test_zero_interval_is_a_bad_sweep(tmp_path):
    """It used to run, fail and quarantine the cell on every attempt."""
    out_path = str(tmp_path / "zero.jsonl")
    code, text = run_cli(["sweep", "--instructions", "500", "--warmup", "0",
                          "--scale", "64", "--torus", "2x2",
                          "--grid", "interval=0", "--retries", "1",
                          "--out", out_path])
    assert code == 1
    assert "bad sweep" in text and "interval" in text
    assert list(tmp_path.iterdir()) == []


def test_bad_sweep_settings_write_no_manifest(tmp_path):
    out_path = str(tmp_path / "bad.jsonl")
    argv = ["sweep", "--instructions", "100", "--scale", "64",
            "--backend", "filequeue", "--out", out_path]
    for flag, value, name in (("--cell-timeout", "0", "cell_timeout"),
                              ("--lease-ttl", "0", "lease_ttl"),
                              ("--lease-ttl", "-1", "lease_ttl"),
                              ("--jobs", "0", "jobs"),
                              ("--backend", "bogus", "unknown backend")):
        code, text = run_cli(argv + [flag, value])
        assert code == 1
        assert "bad sweep" in text and name in text
    assert list(tmp_path.iterdir()) == []


def test_bad_worker_settings_leave_the_journal_untouched(tmp_path):
    store_path = str(tmp_path / "w.jsonl")
    journal = AttemptJournal.for_store(store_path)
    journal.seed([RunSpec(workload="apache", instructions=300, warmup=0,
                          preset="tiny", scale=64, seed=s) for s in (1, 2)])

    def snapshot():
        return {path: path.read_bytes() for path in tmp_path.rglob("*")
                if path.is_file()}

    before = snapshot()
    for flag, value, name in (("--retries", "-1", "retries"),
                              ("--lease-ttl", "0", "lease_ttl"),
                              ("--cell-timeout", "0", "cell_timeout")):
        code, text = run_cli(["worker", "--store", store_path, flag, value])
        assert code == 1
        assert "bad worker" in text and name in text
    assert snapshot() == before
    assert journal.counts()["pending"] == 2


def test_parser_rejects_unknown_workload():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--workload", "tpch"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
