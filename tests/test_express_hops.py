"""Express hops vs hop-by-hop: bit-identical across seeds, shapes, faults.

Express hops change how idle path segments are *scheduled* (one
``net.express`` dispatch at segment end vs one ``net.hop`` dispatch per
switch), never what the network *does*: link claims, switch residency,
contention, and delivery order must be indistinguishable.  The delivery-
and claim-slotting rules (see the Network docstring) canonicalise the two
same-cycle tie classes express advancement would otherwise perturb, so
every run must replay its hop-by-hop run exactly — including runs where
faults land mid-segment and force flights to materialise, which is the
interesting case: the restored hop-by-hop state must be exactly what
per-switch scheduling would have produced.

Hop-by-hop scheduling is one unmatched ``Network.express_hold()`` before
the first event.  The machine cells replay the ``express`` records in
``tests/data/mode_golden.json`` (see ``tests/gen_mode_golden.py``), taken
from held runs: each default run must equal its record in every field
and in a digest of every counter but the ``net.express_*`` telemetry,
and dispatch no more kernel events than the hop-by-hop run did (strictly
fewer whenever a segment went express).  A few held runs must reproduce
the hop-by-hop dispatch counts, so a hold that silently let a flight go
express fails here.  The bare-network test compares live against a held
network.

The idle-stream dispatch-reduction and wall-clock claims live in
``benchmarks/test_network_hotpath.py``; this file is the correctness
sweep.
"""

import pytest

from repro.interconnect.messages import Message, MessageKind
from repro.interconnect.network import Network
from repro.interconnect.routing import RoutingTable
from repro.interconnect.topology import TorusTopology
from repro.sim.kernel import Simulator
from tests.gen_mode_golden import (EXPRESS_MATRIX, MID_SEGMENT, cell_id,
                                   express_fields, express_run, golden)

SHAPES, SEEDS, SCENARIOS = EXPRESS_MATRIX


def _replay(shape, seed: int, scenario: str, *, hold: bool):
    """Run one cell and check it against its record's fields; returns
    (record, machine, result) for the dispatch-count checks."""
    cell = cell_id(shape, seed, scenario)
    record = golden("express")[cell]
    machine, result = express_run(shape, seed, scenario, hold=hold)
    fields = express_fields(machine, result)
    expected = {name: record[name] for name in fields}
    assert fields == expected, (
        f"{cell}: run diverged from its hop-by-hop record\n"
        f"  run   : {fields}\n  record: {expected}")
    return record, machine, result


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_modes_bit_identical(shape, seed, scenario):
    record, machine, _ = _replay(shape, seed, scenario, hold=False)
    events = machine.sim.events_dispatched
    assert events == record["express_events"]
    assert (machine.stats.counter("net.express_flights").value
            == record["express_flights"])
    # The whole point: same run, never more kernel events (strictly fewer
    # whenever any segment actually went express).
    assert events <= record["hop_by_hop_events"]
    if record["express_flights"]:
        assert events < record["hop_by_hop_events"]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_held_run_reproduces_hop_by_hop_counts(scenario):
    """Held from construction, a run is the hop-by-hop run the records
    came from: no flight goes express, and the dispatch count and peak
    queue depth are the hop-by-hop ones."""
    record, machine, _ = _replay((4, 4), 1, scenario, hold=True)
    assert machine.stats.counter("net.express_flights").value == 0
    assert machine.sim.events_dispatched == record["hop_by_hop_events"]
    assert machine.sim.peak_pending == record["hop_by_hop_peak_pending"]


def _segment_network(*, hold: bool):
    """A bare 8x8 network carrying one long-haul message (express covers
    the whole segment unless ``hold``) and the hooks to observe it."""
    sim = Simulator()
    topo = TorusTopology(8, 8)
    net = Network(sim, topo, RoutingTable(topo))
    if hold:
        net.express_hold()
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
        sim, net, delivered = _segment_network(hold=True)
        seen = []
        net.send(Message(MessageKind.GETS, src=0, dst=27))
        sim.run(limit=40)            # mid-flight
        net.add_drop_hook(lambda msg, vertex: seen.append(
            (sim.now, vertex)) and False)
        sim.run()
        return seen, delivered

    def with_express():
        sim, net, delivered = _segment_network(hold=False)
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
    """Machine-level: a drop fault whose armed windows open while express
    segments are live must replay the hop-by-hop record.  The
    hold/release protocol brackets each armed window, so each drop lands
    inside the switch hop-by-hop scheduling puts its victim in.

    The run does not complete, by design: a drop every 1,500 cycles
    outpaces recovery, so the recovery livelock guard crashes the run
    after ``max_recoveries`` (64) recoveries, in both scheduling modes.
    That guard trip is the expected outcome the record pins."""
    record, machine, result = _replay(*MID_SEGMENT, hold=False)
    assert machine.sim.events_dispatched == record["express_events"]
    assert result.recoveries == machine.config.max_recoveries
    assert result.crashed and not result.completed
    assert "recovery livelock guard" in result.crash_reason
