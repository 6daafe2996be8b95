"""Unit tests for the analysis/aggregation layer."""

import pytest

from repro.analysis.metrics import (
    MeasuredBar,
    extrapolate_transient_overhead,
    normalized_performance,
)
from repro.analysis.tables import ascii_bar_chart, format_table
from repro.sim.stats import mean_and_stddev
from repro.system.machine import RunResult


def result(cycles, *, crashed=False, completed=True, recoveries=0, lost=0):
    return RunResult(
        cycles=cycles,
        committed_instructions=1000,
        target_instructions=1000,
        completed=completed,
        crashed=crashed,
        crash_reason="boom" if crashed else None,
        recoveries=recoveries,
        lost_instructions=lost,
        reexecuted_instructions=lost,
    )


# ---------------------------------------------------------------------------
# normalized_performance
# ---------------------------------------------------------------------------
def test_normalized_performance_ratio_and_errorbars():
    baseline = [result(1000), result(1040)]
    measured = [result(1100), result(1060)]
    bar = normalized_performance(measured, baseline, "x")
    assert not bar.crashed
    assert 0.9 < bar.mean < 1.0
    assert bar.stddev > 0
    assert bar.samples == 2
    assert "+-" in bar.render()


def test_normalized_performance_crash_bar():
    baseline = [result(1000)]
    bar = normalized_performance([result(0, crashed=True, completed=False)],
                                 baseline, "dead")
    assert bar.crashed
    assert bar.mean == 0.0
    assert "CRASH" in bar.render()


def test_incomplete_run_renders_as_crash_bar():
    baseline = [result(1000)]
    bar = normalized_performance([result(10**9, completed=False)],
                                 baseline, "dnf")
    assert bar.crashed


def test_identical_runs_give_unity_and_zero_sigma():
    baseline = [result(500), result(500)]
    bar = normalized_performance(baseline, baseline, "self")
    assert bar.mean == pytest.approx(1.0)
    assert bar.stddev == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# extrapolation
# ---------------------------------------------------------------------------
def test_extrapolate_transient_overhead():
    runs = [result(10_000, recoveries=2, lost=40_000)]
    # 20k lost cycles-equivalent per recovery at a 100M-cycle fault period.
    overhead = extrapolate_transient_overhead(runs)
    assert overhead == pytest.approx(20_000 / 100_000_000)


def test_extrapolate_with_no_recoveries_is_zero():
    assert extrapolate_transient_overhead([result(10_000)]) == 0.0


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------
def test_format_table_aligns_columns():
    out = format_table(["a", "bbbb"], [["x", 1], ["longer", 22]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bbbb" in lines[1]
    widths = {len(line) for line in lines[1:]}
    assert len(widths) == 1  # every row padded to the same width


def test_ascii_bar_chart_scales_to_peak():
    out = ascii_bar_chart({"big": 2.0, "small": 1.0}, width=10)
    big_line, small_line = out.splitlines()
    assert big_line.count("#") == 10
    assert small_line.count("#") == 5


def test_ascii_bar_chart_crash_label():
    out = ascii_bar_chart({"ok": 1.0, "dead": 0.0}, crashes=["dead"])
    assert "CRASH" in out
    assert "0.000" not in out


def test_mean_and_stddev():
    mu, sigma = mean_and_stddev([2.0, 4.0, 6.0])
    assert mu == pytest.approx(4.0)
    assert sigma == pytest.approx(2.0)
    assert mean_and_stddev([]) == (0.0, 0.0)
    assert mean_and_stddev([5.0]) == (5.0, 0.0)
