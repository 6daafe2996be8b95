"""Tests for the torus topology, routing, and network model."""

import pytest

from repro.interconnect.messages import Message, MessageKind
from repro.interconnect.network import Network
from repro.interconnect.routing import RoutingError, RoutingTable
from repro.interconnect.topology import HalfSwitchId, TorusTopology, node_vertex
from repro.sim.kernel import Simulator
from repro.sim.stats import StatsRegistry


def make_net(width=4, height=4, *, hold=False, **kwargs):
    sim = Simulator()
    topo = TorusTopology(width, height)
    routing = RoutingTable(topo)
    net = Network(sim, topo, routing, stats=StatsRegistry(), **kwargs)
    if hold:
        net.express_hold()  # hop-by-hop: one dispatch per switch
    return sim, topo, routing, net


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------
def test_torus_coordinates_roundtrip():
    topo = TorusTopology(4, 4)
    for nid in range(16):
        x, y = topo.coords(nid)
        assert topo.node_id(x, y) == nid


def test_half_switch_count():
    topo = TorusTopology(4, 4)
    assert len(list(topo.all_half_switches())) == 32


def test_torus_rejects_degenerate_sizes():
    with pytest.raises(ValueError):
        TorusTopology(1, 4)


def test_half_switch_plane_validation():
    with pytest.raises(ValueError):
        HalfSwitchId("diagonal", 0, 0)


def test_kill_outside_torus_is_rejected():
    # Regression: a kill outside W x H used to be recorded as a dead
    # switch that no route ever crossed, so the fault vanished silently.
    sim, topo, routing, net = make_net()
    outside = HalfSwitchId("ew", 9, 0)
    with pytest.raises(ValueError):
        topo.kill_half_switch(outside)
    with pytest.raises(ValueError):
        net.kill_half_switch(outside)
    assert not topo.dead_switches


def test_killing_one_half_switch_keeps_machine_connected():
    # The design rationale for half-switches (paper Table 1): one dead
    # element must never partition the machine.
    for half in TorusTopology(4, 4).all_half_switches():
        topo = TorusTopology(4, 4)
        topo.kill_half_switch(half)
        assert topo.is_connected(), f"partitioned by killing {half}"


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------
def test_routes_exist_between_all_pairs():
    topo = TorusTopology(4, 4)
    routing = RoutingTable(topo)
    for s in range(16):
        for d in range(16):
            path = routing.path(s, d)
            assert isinstance(path, tuple)  # callers cannot edit the table
            assert path[0] == node_vertex(s)
            assert path[-1] == node_vertex(d)


def test_fault_free_routing_is_dimension_order():
    topo = TorusTopology(4, 4)
    routing = RoutingTable(topo)
    # (0,0) -> (2,1): expect X hops on the EW plane before Y hops on NS.
    switches = routing.switches_on_path(topo.node_id(0, 0), topo.node_id(2, 1))
    planes = [sw.plane for sw in switches]
    assert "ew" in planes and "ns" in planes
    first_ns = planes.index("ns")
    assert all(p == "ns" for p in planes[first_ns:]), planes


def test_routes_avoid_dead_switch_after_recompute():
    topo = TorusTopology(4, 4)
    routing = RoutingTable(topo)
    dead = HalfSwitchId("ew", 1, 0)
    on_path_before = dead in routing.switches_on_path(0, 2)
    assert on_path_before  # sanity: the straight route crosses it
    topo.kill_half_switch(dead)
    routing.recompute()
    for s in range(16):
        for d in range(16):
            if s == d:
                continue
            assert dead not in routing.switches_on_path(s, d)


def test_hop_count_neighbors():
    topo = TorusTopology(4, 4)
    routing = RoutingTable(topo)
    # Adjacent nodes in X: node -> ew -> ew -> node = 2 switch vertices.
    assert routing.hop_count(0, 1) == 2


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------
def test_message_delivery_end_to_end():
    sim, topo, routing, net = make_net()
    inbox = []
    for nid in range(16):
        net.attach(nid, inbox.append)
    msg = Message(MessageKind.GETS, src=0, dst=10, addr=0x40)
    net.send(msg)
    sim.run(limit=10_000)
    assert inbox == [msg]
    assert net.in_flight_count == 0


def test_delivery_latency_scales_with_distance():
    sim, topo, routing, net = make_net()
    arrivals = {}
    for nid in range(16):
        net.attach(nid, lambda m, n=nid: arrivals.setdefault(n, sim.now))
    net.send(Message(MessageKind.GETS, src=0, dst=1))   # 1 hop away
    net.send(Message(MessageKind.GETS, src=0, dst=10))  # farthest quadrant
    sim.run(limit=10_000)
    assert arrivals[1] < arrivals[10]


def test_local_send_delivers_to_self():
    sim, topo, routing, net = make_net()
    inbox = []
    net.attach(3, inbox.append)
    net.send(Message(MessageKind.DATA, src=3, dst=3, data=7))
    sim.run(limit=100)
    assert len(inbox) == 1 and inbox[0].data == 7


def test_local_send_counts_bytes():
    # Regression: local (src == dst) delivery used to count the message
    # but not its bytes, under-reporting Fig. 7-style bandwidth.
    sim, topo, routing, net = make_net()
    net.attach(3, lambda m: None)
    msg = Message(MessageKind.DATA, src=3, dst=3, data=7)
    net.send(msg)
    sim.run(limit=100)
    assert net.stats.counter("net.messages_sent").value == 1
    assert net.stats.counter("net.bytes_sent").value == msg.size_bytes


def test_data_messages_serialize_longer_than_control():
    sim, topo, routing, net = make_net()
    t = {}
    for nid in range(16):
        net.attach(nid, lambda m, n=nid: t.setdefault(m.kind, sim.now))
    net.send(Message(MessageKind.GETS, src=0, dst=2))         # 8 bytes
    sim.run(limit=10_000)
    sim2, topo2, routing2, net2 = make_net()
    t2 = {}
    for nid in range(16):
        net2.attach(nid, lambda m, n=nid: t2.setdefault(m.kind, sim2.now))
    net2.send(Message(MessageKind.DATA, src=0, dst=2, data=1))  # 72 bytes
    sim2.run(limit=10_000)
    assert t2[MessageKind.DATA] > t[MessageKind.GETS]


def test_contention_delays_second_message():
    sim, topo, routing, net = make_net()
    arrivals = []
    for nid in range(16):
        net.attach(nid, lambda m: arrivals.append((m.msg_id, sim.now)))
    a = Message(MessageKind.DATA, src=0, dst=2, data=1)
    b = Message(MessageKind.DATA, src=0, dst=2, data=2)
    net.send(a)
    net.send(b)
    sim.run(limit=100_000)
    times = dict(arrivals)
    assert times[b.msg_id] > times[a.msg_id]
    assert net.stats.counter("net.contention_cycles").value > 0


def test_drop_hook_loses_message_and_notifies():
    sim, topo, routing, net = make_net()
    lost = []
    net.add_lost_listener(lambda m, why: lost.append((m, why)))
    net.add_drop_hook(lambda m, v: True)  # drop everything at first switch
    delivered = []
    for nid in range(16):
        net.attach(nid, delivered.append)
    net.send(Message(MessageKind.GETS, src=0, dst=5))
    sim.run(limit=10_000)
    assert not delivered
    assert len(lost) == 1
    assert net.stats.counter("net.messages_lost").value == 1


@pytest.mark.parametrize("express", [True, False])
def test_kill_switch_loses_buffered_and_future_messages(express):
    # With express on, the message's segment has claimed the victim when
    # it dies: the kill must materialise the flight first.
    sim, topo, routing, net = make_net(hold=not express)
    delivered, lost = [], []
    for nid in range(16):
        net.attach(nid, delivered.append)
    net.add_lost_listener(lambda m, why: lost.append(why))
    victim = HalfSwitchId("ew", 1, 0)
    # This message's dimension-order route 0->2 crosses ew(1,0).
    net.send(Message(MessageKind.GETS, src=0, dst=2))
    sim.run(limit=5)  # let it get into the network
    net.kill_half_switch(victim)
    sim.run(limit=10_000)
    # Either it was resident in the switch when killed, or it arrived at the
    # dead switch afterwards; both must lose it.
    assert not delivered
    assert len(lost) == 1
    # New messages routed over the stale tables also die...
    net.send(Message(MessageKind.GETS, src=0, dst=2))
    sim.run(limit=20_000)
    assert not delivered and len(lost) == 2
    # ...until reconfiguration routes around the corpse.
    net.reconfigure()
    net.send(Message(MessageKind.GETS, src=0, dst=2))
    sim.run(limit=40_000)  # limits are absolute cycles
    assert len(delivered) == 1


@pytest.mark.parametrize("express", [True, False])
def test_drain_discards_in_flight(express):
    sim, topo, routing, net = make_net(hold=not express)
    delivered = []
    for nid in range(16):
        net.attach(nid, delivered.append)
    net.send(Message(MessageKind.GETS, src=0, dst=10))
    sim.run(limit=3)
    assert net.in_flight_count == 1
    assert net.drain() == 1
    sim.run(limit=50_000)
    assert not delivered
    # Network still works after the drain.
    net.send(Message(MessageKind.GETS, src=0, dst=10))
    sim.run(limit=100_000)
    assert len(delivered) == 1


def test_partition_detected_when_both_halves_die():
    topo = TorusTopology(2, 2)
    routing = RoutingTable(topo)
    topo.kill_half_switch(HalfSwitchId("ew", 0, 0))
    topo.kill_half_switch(HalfSwitchId("ns", 0, 0))
    assert not topo.is_connected()
    with pytest.raises(RoutingError):
        routing.recompute()
