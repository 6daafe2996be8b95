"""Coverage for switch-buffer backpressure and input-log pruning."""

import pytest

from repro.config import SystemConfig
from repro.interconnect.messages import Message, MessageKind
from repro.interconnect.network import Network
from repro.interconnect.routing import RoutingTable
from repro.interconnect.topology import TorusTopology
from repro.sim.kernel import Simulator
from repro.sim.stats import StatsRegistry
from repro.system.machine import Machine
from repro.workloads import slashcode


@pytest.mark.parametrize("express", [True, False])
def test_switch_buffer_backpressure_delays_but_delivers(express):
    """With tiny switch buffers, hotspot traffic stalls at switch entry
    (counted) but every message still arrives exactly once."""
    sim = Simulator()
    topo = TorusTopology(4, 4)
    net = Network(sim, topo, RoutingTable(topo), stats=StatsRegistry(),
                  buffer_capacity=1)
    if not express:
        net.express_hold()  # hop-by-hop: one dispatch per switch
    delivered = []
    for n in range(16):
        net.attach(n, delivered.append)
    # Hotspot: everyone sends data blocks to node 5 simultaneously.
    sent = 0
    for src in range(16):
        if src != 5:
            for _ in range(4):
                net.send(Message(MessageKind.DATA, src=src, dst=5, data=1))
                sent += 1
    sim.run(limit=2_000_000)
    assert len(delivered) == sent
    assert net.stats.counter("net.buffer_stalls").value > 0
    assert net.in_flight_count == 0


def test_input_log_pruned_as_validation_advances():
    cfg = SystemConfig.tiny()
    machine = Machine(cfg, slashcode(num_cpus=4, scale=64, seed=8), seed=8,
                      io_input_period=200)
    result = machine.run(instructions_per_cpu=8_000, max_cycles=2_000_000)
    assert result.completed
    for node in machine.nodes:
        consumed = node.input_log.first_reads
        # Entries from long-validated execution were garbage-collected:
        # the live log is much smaller than everything ever consumed.
        if consumed > 10:
            assert len(node.input_log) < consumed


def test_pruned_log_still_replays_recent_inputs():
    cfg = SystemConfig.tiny()
    machine = Machine(cfg, slashcode(num_cpus=4, scale=64, seed=9), seed=9,
                      io_input_period=150)
    machine.inject_transient_faults(period=20_000, first_at=8_000, count=2)
    result = machine.run(instructions_per_cpu=8_000, max_cycles=3_000_000)
    assert result.completed and not result.crashed
    # Recoveries happened and inputs replayed from the (pruned) log —
    # pruning never removed anything a rollback could still need.
    assert result.recoveries >= 1
