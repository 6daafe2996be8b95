"""Tests for the checkpoint clock (logical time base)."""

import random

import pytest

from repro.core.clock import CheckpointClock, ClockConfigError
from repro.sim.kernel import Simulator


def test_edges_advance_ccn_per_node():
    sim = Simulator()
    clock = CheckpointClock(sim, 1000, 4, max_skew=0, min_network_latency=10)
    seen = {n: [] for n in range(4)}
    for n in range(4):
        clock.on_edge(n, lambda ccn, n=n: seen[n].append((sim.now, ccn)))
    clock.start()
    sim.run(limit=3500)
    for n in range(4):
        assert [c for _, c in seen[n]] == [2, 3, 4]
        assert [t for t, _ in seen[n]] == [1000, 2000, 3000]
        assert clock.ccn(n) == 4


def test_skew_offsets_each_node_edge():
    sim = Simulator()
    clock = CheckpointClock(
        sim, 1000, 4, max_skew=8, min_network_latency=10,
        rng=random.Random(42),
    )
    times = {}
    for n in range(4):
        clock.on_edge(n, lambda ccn, n=n: times.setdefault(n, sim.now))
    clock.start()
    sim.run(limit=1100)
    for n in range(4):
        assert times[n] == 1000 + clock.skews[n]
        assert 0 <= clock.skews[n] <= 8


def test_skew_must_be_below_min_latency():
    # Paper S3.2: skew >= min communication time breaks causality.
    sim = Simulator()
    with pytest.raises(ClockConfigError):
        CheckpointClock(sim, 1000, 4, max_skew=10, min_network_latency=10)


def test_interval_must_be_positive():
    with pytest.raises(ClockConfigError):
        CheckpointClock(Simulator(), 0, 4, max_skew=0, min_network_latency=5)


def test_edge_time_inverse():
    sim = Simulator()
    clock = CheckpointClock(
        sim, 500, 2, max_skew=4, min_network_latency=10,
        rng=random.Random(7),
    )
    assert clock.edge_time(0, 1) == 0
    assert clock.edge_time(0, 2) == 500 + clock.skews[0]
    assert clock.edge_time(1, 5) == 2000 + clock.skews[1]


def test_logical_time_causality_property():
    """With skew < min latency, a message sent in interval j (sender CCN=j)
    always arrives when the receiver's CCN >= j.  This is the paper's
    validity condition for the checkpoint clock as a logical time base."""
    sim = Simulator()
    interval, min_lat = 1000, 10
    clock = CheckpointClock(
        sim, interval, 2, max_skew=min_lat - 1, min_network_latency=min_lat,
        rng=random.Random(3),
    )
    clock.start()
    violations = []

    def send_and_check(send_time: int) -> None:
        sender_ccn = clock.ccn(0)
        arrive = send_time + min_lat  # minimum possible latency

        def check(ccn=sender_ccn):
            if clock.ccn(1) < ccn:
                violations.append((send_time, ccn, clock.ccn(1)))

        sim.schedule(arrive, check)

    for t in range(1, 20_000, 37):
        sim.schedule(t, lambda t=t: send_and_check(t))
    sim.run(limit=30_000)
    assert not violations
