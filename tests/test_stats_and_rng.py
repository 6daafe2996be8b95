"""Unit tests for the stats registry."""

import pytest

from repro.sim.stats import BandwidthMeter, Counter, Histogram, StatsRegistry


# ---------------------------------------------------------------------------
# Stats primitives
# ---------------------------------------------------------------------------
def test_counter_add_and_reset():
    c = Counter("x")
    c.add()
    c.add(5)
    assert c.value == 6
    c.reset()
    assert c.value == 0


def test_histogram_statistics():
    h = Histogram("lat")
    for v in (10, 20, 30, 40):
        h.record(v)
    assert h.count == 4
    assert h.mean == 25
    assert h.total == 100


def test_histogram_empty_is_safe():
    h = Histogram("empty")
    assert h.mean == 0.0


def test_bandwidth_meter_fractions():
    m = BandwidthMeter("bw")
    m.add("hits", 300)
    m.add("logging", 100)
    assert m.total() == 400
    assert m.fraction("hits") == pytest.approx(0.75)
    assert m.fraction("absent") == 0.0
    assert m.by_kind() == {"hits": 300, "logging": 100}


def test_registry_matching_and_sums():
    reg = StatsRegistry()
    reg.counter("node0.cache.stores").add(3)
    reg.counter("node1.cache.stores").add(4)
    reg.counter("node0.cache.loads").add(9)
    assert reg.sum_counters(".stores") == 7
    assert set(reg.counters_matching(".stores")) == {
        "node0.cache.stores", "node1.cache.stores"
    }


def test_registry_snapshot_contains_all_kinds():
    reg = StatsRegistry()
    reg.counter("a").add(1)
    reg.histogram("h").record(5)
    reg.meter("m").add("hits", 64)
    snap = reg.snapshot()
    assert snap["a"] == 1
    assert snap["h.mean"] == 5
    assert snap["m.hits"] == 64


def test_registry_reset_clears_everything():
    reg = StatsRegistry()
    reg.counter("a").add(1)
    reg.histogram("h").record(5)
    reg.meter("m").add("hits", 64)
    reg.reset()
    assert reg.counter("a").value == 0
    assert reg.histogram("h").count == 0
    assert reg.meter("m").total() == 0
