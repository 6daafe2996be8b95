"""Tests for the torus topology, routing, and network model."""

import gc

import pytest

from repro.experiments import RunSpec, build_machine
from repro.interconnect.messages import Message, MessageKind
from repro.interconnect.network import Network
from repro.interconnect.routing import RoutingError, RoutingTable
from repro.interconnect.topology import HalfSwitchId, TorusTopology, node_vertex
from repro.obs import KIND_LOST, TraceLog
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
    sim.trace = TraceLog()
    net.add_drop_hook(lambda m, v: True)  # drop everything at first switch
    delivered = []
    for nid in range(16):
        net.attach(nid, delivered.append)
    net.send(Message(MessageKind.GETS, src=0, dst=5))
    sim.run(limit=10_000)
    assert not delivered
    lost = sim.trace.of_kind(KIND_LOST)
    assert len(lost) == 1
    assert net.stats.counter("net.messages_lost").value == 1
    # The network journals the loss itself, against the destination.
    (record,) = lost
    assert record.node == 5
    assert {k: record.data[k] for k in ("msg_kind", "src", "dst")} == \
        {"msg_kind": "GETS", "src": 0, "dst": 5}
    assert record.data["reason"].startswith("fault injection at ")


@pytest.mark.parametrize("express", [True, False])
def test_kill_switch_loses_buffered_and_future_messages(express):
    # With express on, the message's segment has claimed the victim when
    # it dies: the kill must materialise the flight first.
    sim, topo, routing, net = make_net(hold=not express)
    delivered = []
    for nid in range(16):
        net.attach(nid, delivered.append)
    sim.trace = TraceLog()
    victim = HalfSwitchId("ew", 1, 0)
    # This message's dimension-order route 0->2 crosses ew(1,0).
    net.send(Message(MessageKind.GETS, src=0, dst=2))
    sim.run(limit=5)  # let it get into the network
    net.kill_half_switch(victim)
    sim.run(limit=10_000)
    # Either it was resident in the switch when killed, or it arrived at the
    # dead switch afterwards; both must lose it.
    assert not delivered
    assert len(sim.trace.of_kind(KIND_LOST)) == 1
    # New messages routed over the stale tables also die...
    net.send(Message(MessageKind.GETS, src=0, dst=2))
    sim.run(limit=20_000)
    assert not delivered and len(sim.trace.of_kind(KIND_LOST)) == 2
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


@pytest.fixture
def arrivals(monkeypatch):
    """Messages whose flight enters the general ``Network._arrive`` (a
    handed-off hop, or an express flight reaching its last switch),
    counted on the class before any network is built."""
    entered = []
    general = Network._arrive

    def counting(net, flight):
        entered.append(flight.msg)
        general(net, flight)

    monkeypatch.setattr(Network, "_arrive", counting)
    return entered


def _hop_beside_express(src, dst, *, hold):
    """A 4x4 network carrying ``src -> dst``, sent under a hold of its
    own so that it hops switch by switch, and then the long-haul
    ``0 -> 10`` (ew(0,0) .. ns(2,2)), which goes express unless the whole
    network is held.  Returns the simulator, network, the hopping message
    and the (cycle, src, dst) deliveries."""
    sim, topo, routing, net = make_net(hold=hold)
    delivered = []
    for nid in range(16):
        net.attach(nid, lambda m: delivered.append((sim.now, m.src, m.dst)))
    hopper = Message(MessageKind.GETS, src=src, dst=dst)
    net.express_hold()
    net.send(hopper)
    net.express_release()
    net.send(Message(MessageKind.GETS, src=0, dst=10))
    return sim, net, hopper, delivered


def _held_deliveries(src, dst):
    sim, net, hopper, delivered = _hop_beside_express(src, dst, hold=True)
    sim.run()
    assert net.c_express_flights.value == 0
    return delivered


def test_hop_beside_express_flight_stays_in_one_frame(arrivals):
    """An express flight elsewhere in the machine does not move a hop off
    its one frame: 13 -> 14 shares no switch or link with the express
    segment and never enters Network._arrive, yet delivers when the
    held (hop-by-hop) network delivers it."""
    sim, net, hopper, delivered = _hop_beside_express(13, 14, hold=False)
    assert not set(net.routing.route(13, 14)[0]) & set(
        net.routing.route(0, 10)[0])
    sim.run(limit=40)
    assert [(cycle, src) for cycle, src, _ in delivered] == [(32, 13)]
    assert net._express_flights, "the long-haul flight left express early"
    sim.run()
    assert hopper not in arrivals
    assert net.c_express_flights.value == 1
    assert net.c_express_interrupts.value == 0
    assert delivered == _held_deliveries(13, 14)


def test_hop_into_claimed_switch_takes_general_path(arrivals):
    """1 -> 2 enters ew(1,0) at cycle 6, while the express flight 0 -> 10
    has claimed it: the hop goes through Network._arrive, which
    materialises the express flight first, and both deliver when the
    held network delivers them."""
    sim, net, hopper, delivered = _hop_beside_express(1, 2, hold=False)
    assert net._express_flights
    sim.run()
    assert arrivals.count(hopper) == 1
    assert net.c_express_flights.value == 1
    assert net.c_express_interrupts.value == 1
    assert delivered == _held_deliveries(1, 2)


def test_partition_detected_when_both_halves_die():
    topo = TorusTopology(2, 2)
    routing = RoutingTable(topo)
    topo.kill_half_switch(HalfSwitchId("ew", 0, 0))
    topo.kill_half_switch(HalfSwitchId("ns", 0, 0))
    assert not topo.is_connected()
    with pytest.raises(RoutingError):
        routing.recompute()


# ---------------------------------------------------------------------------
# Memory: a run leaves nothing for the cycle collector
# ---------------------------------------------------------------------------
GARBAGE_SCENARIOS = {
    "apache-clean": RunSpec(
        workload="apache", torus_width=4, torus_height=4, scale=64,
        instructions=1_000),
    # 27 recoveries: drain() bumps the epoch under flights that are in
    # express or hold a queued hop, the case that clearing the handle
    # only at delivery missed.
    "jbb-transient": RunSpec(
        workload="jbb", torus_width=4, torus_height=4, scale=64,
        instructions=2_000, fault="transient", fault_period=6_000,
        fault_at=3_000, config_overrides=(("home_request_timeout", 3_000),)),
    "apache-switch-kill": RunSpec(
        workload="apache", torus_width=4, torus_height=4, scale=64,
        instructions=1_500, fault="switch", fault_at=4_000),
    "oltp-mesi": RunSpec(
        workload="oltp", torus_width=2, torus_height=2, scale=64,
        instructions=2_000, protocol="mesi"),
}


@pytest.mark.parametrize("name", sorted(GARBAGE_SCENARIOS))
def test_run_leaves_no_cyclic_garbage(name):
    """Every flight, kernel entry and message a run creates is freed by
    reference counting: with the collector off during the run, a full
    collection afterwards finds nothing, although the machine is still
    alive.  A flight that kept its spent hop entry was a reference cycle
    (7,377 objects on the clean run, 82,874 on the transient one)."""
    spec = GARBAGE_SCENARIOS[name]
    machine = build_machine(spec)
    gc.collect()
    gc.disable()
    try:
        result = machine.run(spec.instructions, max_cycles=spec.max_cycles)
        garbage = gc.collect()
    finally:
        gc.enable()
    assert result.completed
    assert garbage == 0
    if name == "jbb-transient":
        assert result.recoveries > 0
        assert machine.network.c_express_flights.value > 0
