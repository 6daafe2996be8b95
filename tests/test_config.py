"""Tests for SystemConfig (the paper's Table 2)."""

import dataclasses
import re

import pytest

from repro.config import SystemConfig
from repro.experiments import RunSpec, build_machine


def test_paper_preset_matches_table2():
    cfg = SystemConfig.paper()
    assert cfg.num_processors == 16
    assert cfg.l1_size == 128 * 1024
    assert cfg.l1_assoc == 4
    assert cfg.l2_size == 4 * 1024 * 1024
    assert cfg.l2_assoc == 4
    assert cfg.memory_size == 2 * 1024**3
    assert cfg.block_size == 64
    assert cfg.clb_size_bytes == 512 * 1024
    assert cfg.clb_entry_bytes == 72
    assert cfg.checkpoint_interval == 100_000
    assert cfg.link_bandwidth_bytes_per_cycle == pytest.approx(6.4)


def test_detection_latency_tolerance_is_interval_times_outstanding():
    cfg = SystemConfig.paper()
    # Paper S3.4: 4 outstanding checkpoints at 100k cycles => 400k cycles.
    assert cfg.outstanding_checkpoints == 4
    assert cfg.detection_latency_tolerance == 400_000


def test_uncontended_2hop_latency_near_180ns():
    cfg = SystemConfig.paper()
    # Table 2 quotes 180 ns; our model should land in that neighbourhood.
    assert 150 <= cfg.uncontended_2hop_latency() <= 210


def test_mismatched_torus_raises():
    with pytest.raises(ValueError):
        SystemConfig(num_processors=16, torus_width=3, torus_height=4)


def test_non_power_of_two_block_raises():
    with pytest.raises(ValueError):
        SystemConfig(block_size=96)


def test_skew_must_be_below_min_network_latency():
    # Paper S3.2: the checkpoint clock is a valid logical time base only if
    # skew < minimum communication latency.
    with pytest.raises(ValueError, match="skew"):
        SystemConfig(max_clock_skew=10_000)


def test_skew_check_skipped_when_safetynet_disabled():
    cfg = SystemConfig(max_clock_skew=10_000, safetynet_enabled=False)
    assert cfg.max_clock_skew == 10_000


def test_clb_entry_must_fit_block_plus_address():
    with pytest.raises(ValueError):
        SystemConfig(clb_entry_bytes=32)


def test_clb_must_hold_one_entry():
    """A CLB smaller than one entry used to be clamped to one entry when
    the nodes were built."""
    for size in (0, 71):
        with pytest.raises(ValueError, match="CLB"):
            SystemConfig(clb_size_bytes=size)
    assert SystemConfig(clb_size_bytes=72).clb_entries == 1


# Each was accepted before: on apache 2x2 (scale 64, 300 instructions,
# seed 1) a zero bandwidth died with ZeroDivisionError at the first send,
# -6.4 completed with every message serialised in 1 cycle, an empty
# buffer committed nothing in 200,000 cycles, a 4.5-cycle switch latency
# died scheduling cycle 16.5, and (SafetyNet off) a -4 link latency died
# scheduling a hop in the past.
BAD_NETWORK_PARAMETERS = [
    ("link_bandwidth_bytes_per_cycle", 0),
    ("link_bandwidth_bytes_per_cycle", -6.4),
    ("switch_buffer_messages", 0),
    ("switch_latency", 4.5),
    ("switch_latency", -1),
    ("link_latency", -4),
    ("link_latency", 4.0),
]


@pytest.mark.parametrize("name, value", BAD_NETWORK_PARAMETERS)
def test_bad_network_parameter_fails_when_config_is_built(name, value):
    """The error names the field and the value, with SafetyNet on or off
    (off, nothing else catches a negative latency), and a spec carrying
    the value as an override fails in build_machine, before any machine
    or event exists."""
    message = rf"{name}.*{re.escape(repr(value))}"
    with pytest.raises(ValueError, match=message):
        SystemConfig(**{name: value})
    with pytest.raises(ValueError, match=message):
        SystemConfig(safetynet_enabled=False, **{name: value})
    spec = RunSpec(workload="apache", torus_width=2, torus_height=2,
                   scale=64, instructions=300, seed=1,
                   config_overrides=((name, value),))
    with pytest.raises(ValueError, match=message):
        build_machine(spec)


def test_network_parameter_bounds_are_inclusive():
    assert SystemConfig(switch_buffer_messages=1).switch_buffer_messages == 1
    slow = SystemConfig(link_bandwidth_bytes_per_cycle=0.5)
    assert slow.data_serialization_cycles == 144
    cfg = SystemConfig(safetynet_enabled=False, switch_latency=0,
                       link_latency=0)
    assert cfg.min_network_latency == 0


def test_with_overrides_returns_modified_copy():
    cfg = SystemConfig.paper()
    cfg2 = cfg.with_overrides(clb_size_bytes=256 * 1024)
    assert cfg2.clb_size_bytes == 256 * 1024
    assert cfg.clb_size_bytes == 512 * 1024
    assert cfg2.num_processors == cfg.num_processors


def test_config_is_frozen():
    cfg = SystemConfig.paper()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.block_size = 128


def test_derived_cache_geometry():
    cfg = SystemConfig.paper()
    assert cfg.blocks_per_cache == cfg.l2_size // 64
    assert cfg.cache_sets * cfg.l2_assoc == cfg.blocks_per_cache


def test_clb_entries_count():
    cfg = SystemConfig.paper()
    assert cfg.clb_entries == (512 * 1024) // 72


def test_tiny_preset_is_2x2():
    cfg = SystemConfig.tiny()
    assert cfg.num_processors == 4
    assert cfg.torus_width == 2 and cfg.torus_height == 2


def test_scale_below_one_is_rejected():
    for scale in (0, -4):
        with pytest.raises(ValueError, match="scale"):
            SystemConfig.sim_scaled(scale)
        with pytest.raises(ValueError, match="scale"):
            SystemConfig.from_shape(4, 4, scale=scale)


def test_sim_scaled_keeps_16_nodes():
    cfg = SystemConfig.sim_scaled()
    assert cfg.num_processors == 16
    assert cfg.l2_size < SystemConfig.paper().l2_size


def test_table2_rendering_mentions_key_rows():
    rows = SystemConfig.paper().table2()
    assert "L2 Cache" in rows
    assert "Checkpoint Log Buffer" in rows
    assert "512 kbytes" in rows["Checkpoint Log Buffer"]
    assert "torus" in rows["Interconnection Network"]


def test_serialization_cycles():
    cfg = SystemConfig.paper()
    assert cfg.data_serialization_cycles == round(72 / 6.4)
    assert cfg.control_serialization_cycles >= 1
