"""Unit tests for the PR-4 hot-path subsystems:

* :class:`repro.sim.deadlines.DeadlineTable` — many timeouts, one event;
* the kernel dispatch tracer + :mod:`repro.sim.profile` harness;
* :class:`repro.sim.stats.Histogram` aggregates;
* the workloads' window-hashed ``ops_from`` against the reference ``op()``;
* the optional home-side and snooping request timeouts.
"""

import gc
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.interconnect.messages import Message, MessageKind
from repro.sim.deadlines import DeadlineTable
from repro.sim.kernel import Simulator
from repro.sim.profile import (
    CollectorProfile,
    DispatchProfile,
    network_efficiency,
    profile_spec,
)
from repro.sim.stats import Histogram, StatsRegistry
from repro.workloads import WORKLOAD_NAMES, RandomTester, by_name
from repro.workloads.base import OP_GAP_SHIFT, OP_STORE_BIT, OP_WINDOW
from tests.conftest import tiny_machine


# ----------------------------------------------------------------------
# DeadlineTable
# ----------------------------------------------------------------------
def test_deadline_fires_at_exact_cycle():
    sim = Simulator()
    fired = []
    table = DeadlineTable(sim, "t")
    table.arm("a", 100, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [100]
    assert len(table) == 0


def test_cancel_prevents_firing_and_sweep_disarms():
    sim = Simulator()
    fired = []
    table = DeadlineTable(sim, "t")
    table.arm("a", 50, lambda: fired.append("a"))
    table.arm("b", 80, lambda: fired.append("b"))
    assert table.cancel("a")
    assert not table.cancel("a")          # idempotent
    sim.run()
    # The stale sweep at 50 finds nothing expired and re-arms for 80.
    assert fired == ["b"]
    assert sim.now == 80


def test_one_sweep_event_for_many_armed_deadlines():
    """N armed-and-cancelled deadlines must cost ~1 dispatch, not N."""
    sim = Simulator()
    table = DeadlineTable(sim, "t")
    for i in range(500):
        table.arm(i, 1_000 + i, lambda: None)
        table.cancel(i)
    sim.run()
    # One live sweep event (at the first minimum) is all the heap saw.
    assert sim.events_dispatched == 1


def test_rearm_replaces_deadline():
    sim = Simulator()
    fired = []
    table = DeadlineTable(sim, "t")
    table.arm("a", 60, lambda: fired.append(("old", sim.now)))
    table.arm("a", 90, lambda: fired.append(("new", sim.now)))
    sim.run()
    assert fired == [("new", 90)]


def test_same_cycle_deadlines_fire_in_arm_order():
    sim = Simulator()
    fired = []
    table = DeadlineTable(sim, "t")
    for key in ("x", "y", "z"):
        table.arm(key, 40, lambda k=key: fired.append(k))
    sim.run()
    assert fired == ["x", "y", "z"]


def test_callback_may_arm_followup_deadline():
    sim = Simulator()
    fired = []
    table = DeadlineTable(sim, "t")

    def first():
        fired.append(("first", sim.now))
        table.arm("second", sim.now + 25, lambda: fired.append(("second", sim.now)))

    table.arm("first", 10, first)
    sim.run()
    assert fired == [("first", 10), ("second", 35)]


def test_clear_drops_everything():
    sim = Simulator()
    fired = []
    table = DeadlineTable(sim, "t")
    table.arm("a", 30, lambda: fired.append("a"))
    table.clear()
    assert table.next_deadline() is None
    sim.run()
    assert fired == []


# ----------------------------------------------------------------------
# Dispatch tracer + profile harness
# ----------------------------------------------------------------------
def test_tracer_counts_every_dispatch_by_label():
    sim = Simulator()
    profile = DispatchProfile()
    sim.tracer = profile
    for i in range(5):
        sim.schedule(10 + i, lambda: None, "tick")
    sim.schedule(20, lambda: None, "other")
    cancelled = sim.schedule(30, lambda: None, "never")
    sim.cancel(cancelled)
    sim.run()
    assert profile.counts == {"tick": 5, "other": 1}
    assert profile.total_dispatches == sim.events_dispatched == 6
    assert abs(profile.dispatch_fraction("tick") - 5 / 6) < 1e-12
    rows = profile.rows()
    assert {r["label"] for r in rows} == {"tick", "other"}
    assert abs(sum(r["dispatch_frac"] for r in rows) - 1.0) < 1e-12


def test_traced_run_matches_untraced_run():
    def build():
        sim = Simulator()
        out = []

        def ping(i):
            out.append((sim.now, i))
            if i < 20:
                sim.schedule_after(3, lambda: ping(i + 1), "ping")

        sim.schedule(1, lambda: ping(0), "ping")
        return sim, out

    sim_a, out_a = build()
    sim_a.run()
    sim_b, out_b = build()
    sim_b.tracer = DispatchProfile()
    sim_b.run()
    assert out_a == out_b
    assert sim_a.now == sim_b.now
    assert sim_b.tracer.total_dispatches == sim_b.events_dispatched


def test_profile_spec_reports_labels_and_json():
    from repro.experiments import RunSpec

    spec = RunSpec(workload="apache", instructions=400, preset="tiny",
                   scale=64, max_cycles=2_000_000)
    report = profile_spec(spec, use_cprofile=True, top_functions=5)
    record = report.record
    assert record.spec == spec
    assert record.completed and not record.crashed
    events = record.telemetry["events_dispatched"]
    assert report.dispatch.total_dispatches == events > 0
    assert "core.burst" in report.dispatch.counts
    assert report.functions and len(report.functions) <= 5
    payload = json.loads(report.to_json())
    assert payload["result"]["completed"] is True
    assert payload["kernel_events"]["total_dispatches"] == events


def test_profile_reports_express_hop_efficiency():
    """The network-efficiency block: hop dispatches vs hops advanced,
    express coverage, and its JSON round-trip."""
    from repro.experiments import RunSpec, build_machine

    spec = RunSpec(workload="apache", instructions=400, preset="tiny",
                   scale=64, max_cycles=2_000_000)
    report = profile_spec(spec, use_cprofile=False)
    net = report.network
    for field in ("hop_dispatches", "express_dispatches",
                  "express_flights", "express_hops", "express_interrupts",
                  "hops_per_dispatch", "express_hop_fraction"):
        assert field in net, f"missing network-efficiency field {field}"
    assert net["express_flights"] > 0
    assert net["hop_dispatches"] == report.dispatch.counts.get("net.hop", 0)
    assert net["hops_per_dispatch"] >= 1.0
    assert 0.0 <= net["express_hop_fraction"] <= 1.0
    # Hops advanced = per-switch dispatches + arithmetic express hops.
    total = net["hop_dispatches"] + net["express_hops"]
    dispatches = net["hop_dispatches"] + net["express_dispatches"]
    assert net["hops_per_dispatch"] == pytest.approx(
        total / dispatches if dispatches else 0.0)
    payload = json.loads(report.to_json())
    assert payload["network"] == net

    # Express held off: the block must report zero express activity.
    machine = build_machine(spec)
    dispatch = DispatchProfile()
    machine.sim.tracer = dispatch
    machine.network.express_hold()
    machine.run(spec.instructions, max_cycles=spec.max_cycles)
    off = network_efficiency(machine, dispatch)
    assert off["express_flights"] == 0
    assert off["express_hops"] == 0
    assert off["hops_per_dispatch"] in (0.0, 1.0)


def test_profile_reports_the_cycle_collector():
    """The collector block: collections per generation, seconds and
    objects reclaimed during the run.  A run frees what it allocates by
    reference counting, so the collector finds nothing to reclaim (it
    reclaimed over a thousand objects here while each flight kept its
    spent hop entry)."""
    from repro.experiments import RunSpec

    spec = RunSpec(workload="apache", torus_width=2, torus_height=2,
                   scale=64, instructions=2_000)
    report = profile_spec(spec, use_cprofile=False)
    collector = report.gc
    assert set(collector) == {"collections", "seconds", "reclaimed"}
    assert len(collector["collections"]) == len(gc.get_count())
    assert collector["seconds"] >= 0.0
    assert collector["reclaimed"] == 0
    assert json.loads(report.to_json())["gc"] == collector
    # The hook is removed when the run ends.
    assert not any(isinstance(cb, CollectorProfile) for cb in gc.callbacks)


# ----------------------------------------------------------------------
# Window-hashed ops_from vs the readable reference op()
# ----------------------------------------------------------------------
def window(wl, cpu, position, end):
    """``ops_from``'s result with the ops as a list."""
    ops, next_position = wl.ops_from(cpu, position, end)
    return list(ops), next_position


def reference_chain(wl, cpu, position, end):
    """``op()`` walked along the chain from ``position``, packed, up to
    ``ops_from``'s bound; and the first chain position past it."""
    bound = min(position + OP_WINDOW, end)
    ops = []
    while position < bound:
        op = wl.op(cpu, position)
        ops.append((op.gap << OP_GAP_SHIFT) | op.addr
                   | (OP_STORE_BIT if op.is_store else 0))
        position += op.gap + 1
    return ops, position


def op_streams():
    """Every preset plus the random tester: barnes exercises the phase
    branch, jbb the allocation-streaming store branch."""
    return [by_name(name, num_cpus=4, scale=32, seed=7)
            for name in WORKLOAD_NAMES] + [RandomTester(num_cpus=4, seed=7,
                                                        blocks=5)]


def test_flattened_op_matches_reference_helpers():
    """``ops_from`` hashes a window of positions in one pass over 128-bit
    lanes and inlines the region helpers; this is the differential oracle
    that holds it to the reference ``op()`` walked along the chain."""
    far = 1 << 50
    for wl in op_streams():
        for cpu in (0, 3):
            # Consecutive windows from 0: each starts where the last one's
            # chain left off, and barnes' 2,000-position phases change
            # inside the second.
            position = 0
            for _ in range(3):
                got = window(wl, cpu, position, far)
                assert got == reference_chain(wl, cpu, position, far), (
                    wl.spec.name, cpu, position)
                position = got[1]
            # Unaligned starts, a start above 2**32, a phase boundary
            # inside the cap, and caps shorter than a window down to one op.
            for start, end in ((777, far), (2**32 + 5, 2**32 + 300),
                               (1_990, 2_100), (3_999, 4_001),
                               (12_345, 12_346)):
                got = window(wl, cpu, start, end)
                assert got == reference_chain(wl, cpu, start, end), (
                    wl.spec.name, cpu, start, end)
            ops, next_position = window(wl, cpu, 12_345, 12_346)
            assert len(ops) == 1 and next_position > 12_345


@settings(max_examples=40, deadline=None)
@given(stream=st.integers(0, len(WORKLOAD_NAMES)), seed=st.integers(0, 2**32),
       cpu=st.integers(0, 3), position=st.integers(0, 2**40),
       length=st.integers(1, 2 * OP_WINDOW))
def test_ops_from_matches_reference_property(stream, seed, cpu, position,
                                             length):
    if stream < len(WORKLOAD_NAMES):
        wl = by_name(WORKLOAD_NAMES[stream], num_cpus=4, scale=32, seed=seed)
    else:
        wl = RandomTester(num_cpus=4, seed=seed, blocks=7)
    end = position + length
    assert window(wl, cpu, position, end) == reference_chain(
        wl, cpu, position, end)


# ----------------------------------------------------------------------
# Histogram aggregates
# ----------------------------------------------------------------------
def test_histogram_running_aggregates_match_samples():
    h = Histogram("h")
    samples = [5, 1, 9, 3, 3, 12, -2]
    for s in samples:
        h.record(s)
    assert h.count == len(samples)
    assert h.total == sum(samples)
    assert h.mean == sum(samples) / len(samples)
    h.record(100)                          # every aggregate sees it
    assert h.count == len(samples) + 1
    assert h.mean == (sum(samples) + 100) / (len(samples) + 1)
    h.reset()
    assert (h.count, h.total, h.mean) == (0, 0, 0.0)


def test_histogram_registry_snapshot_unchanged():
    reg = StatsRegistry()
    h = reg.histogram("lat")
    for v in (2, 4, 6):
        h.record(v)
    snap = reg.snapshot()
    assert snap["lat.mean"] == 4.0
    assert snap["lat.count"] == 3


# ----------------------------------------------------------------------
# Optional home-side timeout (detection hardening)
# ----------------------------------------------------------------------
def test_orphaned_home_transaction_detected_by_home_timeout():
    """A GETM whose requestor never answers (no FINAL_ACK) leaves the
    home's busy window open; with home_request_timeout set, the home —
    not the distant watchdog — reports the fault."""
    machine = tiny_machine(home_request_timeout=3_000)
    addr = 0x40                           # block 1 -> home node 1
    assert machine.home_of(addr) == 1
    # A forged request: node 2's cache has no MSHR for it, so the DATA
    # response is dropped on the floor and the transaction never closes.
    machine.network.send(Message(MessageKind.GETM, src=2, dst=1,
                                 addr=addr, txn_id=999_999))
    machine.sim.run(limit=60_000)
    assert machine.stats.counter("node1.home.timeouts").value == 1
    assert machine.recovery.stats.recoveries >= 1
    assert not machine.nodes[1].home.busy


def test_snooping_request_timeout_fires_when_unanswered():
    from repro.coherence.snooping import SnoopingCache
    from repro.core.clb import CheckpointLogBuffer

    class DeafBus:
        """A bus that serialises requests but never delivers data."""

        def __init__(self):
            self.order = 0

        def subscribe(self, fn):
            pass

        def attach_data(self, node_id, fn):
            pass

        def broadcast(self, msg):
            index, self.order = self.order, self.order + 1
            return index

    sim = Simulator()
    faults = []
    cache = SnoopingCache(
        sim, 0, DeafBus(), CheckpointLogBuffer(64, name="clb"),
        StatsRegistry(), request_timeout=500, on_fault=faults.append,
    )
    cache.load(0x80, lambda _v: None)
    sim.run(limit=2_000)
    assert len(faults) == 1 and "timeout" in faults[0]
    assert cache.c_timeouts.value == 1
