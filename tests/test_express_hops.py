"""Express hops vs hop-by-hop: bit-identical across seeds, shapes, faults.

``express_hops`` changes how idle path segments are *scheduled* (one
``net.express`` dispatch at segment end vs one ``net.hop`` dispatch per
switch), never what the network *does*: link claims, switch residency,
contention, and delivery order must be indistinguishable.  The delivery-
and claim-slotting rules (see the Network docstring) canonicalise the two
same-cycle tie classes express advancement would otherwise perturb, so
every run must replay identically with express on or off — including
runs where faults land mid-segment and force flights to materialise,
which is the interesting case: the restored hop-by-hop state must be
exactly what per-switch scheduling would have produced.

The idle-stream dispatch-reduction and wall-clock claims live in
``benchmarks/test_network_hotpath.py``; this file is the correctness
sweep.
"""

import dataclasses

import pytest

from repro.config import SystemConfig
from repro.interconnect.messages import Message, MessageKind
from repro.interconnect.network import Network
from repro.interconnect.routing import RoutingTable
from repro.interconnect.topology import TorusTopology
from repro.sim.kernel import Simulator
from repro.system.machine import Machine
from repro.workloads import apache, jbb

SHAPES = [(2, 2), (4, 4), (4, 8), (8, 8)]
SEEDS = [1, 2]
SCENARIOS = ["clean", "transient", "switch_kill"]

# Express telemetry is the one legitimate difference between the modes.
EXPRESS_COUNTERS = ("net.express_flights", "net.express_hops",
                    "net.express_interrupts")


def _config(shape, express: bool) -> SystemConfig:
    if shape == (2, 2):
        return SystemConfig.tiny(express_hops=express)
    return SystemConfig.from_shape(*shape, preset="tiny",
                                   express_hops=express)


def _run(express: bool, shape, seed: int, scenario: str):
    config = _config(shape, express)
    if shape[0] * shape[1] >= 32:
        # Big tori get a shorter run: the sweep stays O(seconds).
        instructions, scale = 600, 64
    else:
        instructions, scale = 2_000, 64
    workload = (apache if seed % 2 else jbb)(
        num_cpus=config.num_processors, scale=scale, seed=seed)
    machine = Machine(config, workload, seed=seed)
    if scenario == "transient":
        machine.inject_transient_faults(period=2_500, first_at=1_200)
    elif scenario == "switch_kill":
        machine.inject_switch_kill(at_cycle=2_000)
    result = machine.run(instructions, max_cycles=5_000_000)
    fields = (
        result.cycles,
        result.committed_instructions,
        result.completed,
        result.crashed,
        result.crash_reason,
        result.recoveries,
        result.lost_instructions,
        result.reexecuted_instructions,
        machine.stats.counter("net.messages_sent").value,
        machine.stats.counter("net.messages_delivered").value,
        machine.stats.counter("net.messages_lost").value,
        machine.stats.counter("net.bytes_sent").value,
        machine.stats.counter("net.contention_cycles").value,
        machine.stats.counter("net.buffer_stalls").value,
        machine.stats.sum_counters(".cache.loads"),
        machine.stats.sum_counters(".cache.stores"),
        machine.stats.sum_counters(".cache.misses"),
        machine.controllers.rpcn,
    )
    express_flights = machine.stats.counter("net.express_flights").value
    return fields, machine.sim.events_dispatched, express_flights


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_modes_bit_identical(shape, seed, scenario):
    exp_fields, exp_events, exp_flights = _run(True, shape, seed, scenario)
    ref_fields, ref_events, ref_flights = _run(False, shape, seed, scenario)
    assert exp_fields == ref_fields, (
        f"shape={shape} seed={seed} {scenario}: modes diverged\n"
        f"  express: {exp_fields}\n  hop-by-hop: {ref_fields}"
    )
    assert ref_flights == 0
    # The whole point: same run, never more kernel events (strictly fewer
    # whenever any segment actually went express).
    assert exp_events <= ref_events
    if exp_flights:
        assert exp_events < ref_events


def _segment_network(express: bool):
    """A bare 8x8 network carrying one long-haul message (express covers
    the whole segment) and the hooks to observe it."""
    sim = Simulator()
    topo = TorusTopology(8, 8)
    net = Network(sim, topo, RoutingTable(topo), express=express)
    delivered = []
    for nid in range(64):
        net.attach(nid, lambda m: delivered.append((sim.now, m.src, m.dst)))
    return sim, net, delivered


def test_drop_fault_lands_mid_segment_on_correct_switch():
    """An unmanaged drop hook added while a flight is mid-express-segment
    must force materialisation, and the hook must then observe the flight
    at exactly the switch hop-by-hop scheduling would put it in."""
    observed = {}

    def reference():
        sim, net, delivered = _segment_network(express=False)
        seen = []
        net.send(Message(MessageKind.GETS, src=0, dst=27))
        sim.run(limit=40)            # mid-flight
        net.add_drop_hook(lambda msg, vertex: seen.append(
            (sim.now, vertex)) and False)
        sim.run()
        return seen, delivered

    def with_express():
        sim, net, delivered = _segment_network(express=True)
        seen = []
        net.send(Message(MessageKind.GETS, src=0, dst=27))
        sim.run(limit=40)
        assert net._express_flights, "flight should be mid-express-segment"
        # add_drop_hook (unmanaged) holds express, which materialises the
        # in-flight segment at the current cycle.
        net.add_drop_hook(lambda msg, vertex: seen.append(
            (sim.now, vertex)) and False)
        assert not net._express_flights, "hook must force materialisation"
        sim.run()
        return seen, delivered

    observed["ref"] = reference()
    observed["exp"] = with_express()
    assert observed["exp"] == observed["ref"], (
        "materialised flight visited different switches than hop-by-hop\n"
        f"  express   : {observed['exp']}\n  reference : {observed['ref']}")
    # The scenario must exercise the machinery: the hook saw switches.
    assert observed["ref"][0], "hook observed no switch traversals"


def test_transient_mid_segment_drop_machine_equivalent():
    """Machine-level: a drop fault whose armed window opens while express
    segments are live must produce identical recoveries in both modes.
    The hold/release protocol brackets each armed window, so the drop
    lands inside a switch both modes agree on."""
    results = {}
    for express in (True, False):
        config = dataclasses.replace(SystemConfig.from_shape(
            4, 8, preset="tiny"), express_hops=express)
        machine = Machine(config, apache(num_cpus=32, scale=64, seed=5),
                          seed=5)
        machine.inject_transient_faults(period=1_500, first_at=900)
        result = machine.run(800, max_cycles=5_000_000)
        results[express] = (
            result.cycles, result.committed_instructions,
            result.recoveries, result.crashed,
            machine.stats.counter("net.messages_lost").value,
            machine.stats.counter("net.messages_delivered").value,
        )
        assert result.recoveries > 0, "scenario fired no recovery"
    assert results[True] == results[False]
