"""Network hop hot-path guards.

The interconnect schedules every switch-to-switch hop of every coherence
message, so its dispatch cost multiplies across the whole simulator the
same way the kernel heap does.  Slotted scheduling performs leave +
arrive + depart in one kernel dispatch per hop (same-cycle completions
are deliberately NOT batched into shared heap entries — that reordered
hop processing against interleaved non-hop events; see the Network
docstring):

* **one dispatch per hop** — on a steady 4x4 hop stream scheduled hop
  by hop, the ``net.hop`` dispatch count must equal the number of links
  the messages cross, exactly (a structural, noise-free check); the
  stream is also timed and reported.

*Express hops* layer on top: when a flight's remaining segment is
idle, one ``net.express`` dispatch covers the whole segment.  The
hop-by-hop reference is the same network with one unmatched
``Network.express_hold()`` before the first event.  The express guards
live here too:

* **reduction** — on an idle 8x8 stream the per-hop dispatch count
  (``net.hop`` + ``net.express``) must drop >= 1.5x vs hop-by-hop
  scheduling, with an identical delivery sequence in both modes;
* **equivalence** — full default-4x4 machine runs must produce
  bit-identical ``RunResult`` fields with and without the hold;
* **degradation** — on a contended stream express must fall back to
  hop-by-hop (interrupts fire, dispatch counts stay near hop-by-hop's)
  rather than thrash.

``REPRO_BENCH_SMOKE=1`` shrinks the iteration counts for the CI smoke
step (see .github/workflows/ci.yml), keeping the structural assertions
intact.
"""

import time

from repro.config import SystemConfig
from repro.interconnect.messages import Message, MessageKind
from repro.interconnect.network import Network
from repro.interconnect.routing import RoutingTable
from repro.interconnect.topology import TorusTopology
from repro.sim.kernel import Simulator
from repro.system.machine import Machine
from repro.workloads import by_name

from benchmarks.conftest import run_once, smoke_mode

SMOKE = smoke_mode()

# Messages per timed run; each traverses several switch hops.
MESSAGES = 2_000 if SMOKE else 20_000
TIMING_REPEATS = 3


class _HopCounter:
    """Kernel tracer counting per-hop dispatches by label."""

    def __init__(self):
        self.counts = {}

    def record(self, label, seconds):
        self.counts[label] = self.counts.get(label, 0) + 1

    def hop_dispatches(self):
        return (self.counts.get("net.hop", 0)
                + self.counts.get("net.express", 0))


def _hop_stream(n_messages: int, hop_by_hop: bool = True):
    """A steady self-refuelling hop stream on a bare 4x4 network, held
    hop by hop unless ``hop_by_hop`` is False.  Returns (sim, net,
    links): ``links[0]`` counts the links the sent messages will cross."""
    sim = Simulator()
    topo = TorusTopology(4, 4)
    routing = RoutingTable(topo)
    net = Network(sim, topo, routing)
    if hop_by_hop:
        net.express_hold()
    remaining = [n_messages]
    links = [0]

    def send(src: int, dst: int) -> None:
        links[0] += len(routing.route(src, dst)[1])
        net.send(Message(MessageKind.GETS, src=src, dst=dst))

    def deliver(msg: Message) -> None:
        if remaining[0] > 0:
            remaining[0] -= 1
            send(msg.dst, (msg.dst * 7 + 3) % 16)

    for nid in range(16):
        net.attach(nid, deliver)
    for src in range(16):
        send(src, (src + 5) % 16)
    return sim, net, links


def test_hop_dispatch_throughput(benchmark):
    def experiment():
        sim, _, links = _hop_stream(MESSAGES)
        tracer = _HopCounter()
        sim.tracer = tracer
        sim.run()
        best = float("inf")
        for _ in range(TIMING_REPEATS):
            timed, _, _ = _hop_stream(MESSAGES)
            started = time.perf_counter()
            timed.run()
            best = min(best, time.perf_counter() - started)
            assert timed.events_dispatched == sim.events_dispatched
        return best, sim.events_dispatched, tracer.counts["net.hop"], links[0]

    wall_s, events, hops, links = run_once(experiment, benchmark)
    print(f"\nnetwork hop dispatch ({MESSAGES} messages): {wall_s:.3f}s, "
          f"{events:,} kernel events, {hops:,} hop dispatches for "
          f"{links:,} link traversals")
    assert hops == links, (
        f"{hops:,} net.hop dispatches for {links:,} link traversals: "
        f"a hop is no longer exactly one kernel dispatch")


def _machine_result(workload: str, instructions: int, express: bool):
    config = SystemConfig.sim_scaled(16)  # default 4x4 machine
    machine = Machine(
        config,
        by_name(workload, num_cpus=config.num_processors, scale=16, seed=1),
        seed=1,
    )
    if not express:
        machine.network.express_hold()
    result = machine.run(instructions, max_cycles=10_000_000)
    return (result.cycles, result.committed_instructions, result.recoveries,
            result.completed, result.crashed,
            machine.stats.counter("net.messages_delivered").value,
            machine.stats.counter("net.bytes_sent").value)


# ----------------------------------------------------------------------
# Express hops (PR 7)
# ----------------------------------------------------------------------

# An express segment must cut per-hop dispatches at least this much on a
# stream whose switches are idle (one message in the network at a time).
MIN_EXPRESS_DISPATCH_REDUCTION = 1.5


def _idle_stream(express: bool, n_messages: int):
    """One message at a time crossing an 8x8 torus: every switch on the
    path is idle, so every network-path send is express-eligible."""
    sim = Simulator()
    topo = TorusTopology(8, 8)
    net = Network(sim, topo, RoutingTable(topo))
    if not express:
        net.express_hold()
    tracer = _HopCounter()
    sim.tracer = tracer
    remaining = [n_messages]
    deliveries = []

    def deliver(msg: Message) -> None:
        deliveries.append((sim.now, msg.src, msg.dst))
        if remaining[0] > 0:
            remaining[0] -= 1
            # Long diagonal routes: plenty of idle switches to skip.
            net.send(Message(MessageKind.GETS, src=msg.dst,
                             dst=(msg.dst + 27) % 64))

    for nid in range(64):
        net.attach(nid, deliver)
    net.send(Message(MessageKind.GETS, src=0, dst=27))
    sim.run()
    return tracer, deliveries, net


def test_express_hop_dispatch_reduction(benchmark):
    """Idle 8x8 stream: express must replace most per-switch dispatches
    with one segment dispatch, without changing a single delivery."""
    n = 200 if SMOKE else 2_000

    def experiment():
        return _idle_stream(True, n), _idle_stream(False, n)

    (express, hop_by_hop) = run_once(experiment, benchmark)
    e_tracer, e_deliveries, e_net = express
    h_tracer, h_deliveries, _ = hop_by_hop

    assert e_deliveries == h_deliveries, (
        "express changed the delivery sequence on an idle stream")
    e_hops = e_tracer.hop_dispatches()
    h_hops = h_tracer.hop_dispatches()
    reduction = h_hops / e_hops
    print(f"\nidle 8x8 express stream ({n} messages):"
          f"\n  hop-by-hop: {h_hops:,} hop dispatches"
          f"\n  express   : {e_hops:,} hop dispatches"
          f" ({e_tracer.counts.get('net.express', 0):,} segment events)"
          f"\n  reduction : {reduction:.2f}x")
    assert reduction >= MIN_EXPRESS_DISPATCH_REDUCTION, (
        f"express only cut hop dispatches {reduction:.2f}x on an idle "
        f"stream (floor {MIN_EXPRESS_DISPATCH_REDUCTION:.2f}x)")
    assert e_net.c_express_interrupts.value == 0, (
        "nothing contends on the idle stream; no flight should ever "
        "materialise")


def test_express_contended_stream_degrades(benchmark):
    """Contended 4x4 stream: express must fall back to hop-by-hop (the
    interruption rule) instead of thrashing commit/materialise cycles."""
    n = 1_000 if SMOKE else 5_000

    def experiment():
        sim_e, net_e, _ = _hop_stream(n, hop_by_hop=False)
        sim_e.run()
        sim_h, net_h, _ = _hop_stream(n)
        sim_h.run()
        return (sim_e.events_dispatched, net_e.c_express_interrupts.value,
                net_e.c_messages_delivered.value, sim_h.events_dispatched,
                net_h.c_messages_delivered.value)

    e_events, e_interrupts, e_delivered, h_events, h_delivered = \
        run_once(experiment, benchmark)

    assert e_delivered == h_delivered
    # Express may not *add* meaningful dispatch load under contention:
    # the adaptive credit gate stops probing once interruptions dominate.
    assert e_events <= h_events * 1.10, (
        f"express dispatched {e_events:,} events on a contended stream vs "
        f"{h_events:,} without express — the fallback is not engaging")
    print(f"\ncontended 4x4 stream ({n} messages): express {e_events:,} "
          f"events ({e_interrupts:,} interrupts), hop-by-hop {h_events:,}")


def test_express_results_bit_identical(benchmark):
    """Full-machine runs: express vs hop-by-hop scheduling."""
    instructions = 1_000 if SMOKE else 4_000

    def experiment():
        out = {}
        for workload in ("apache", "jbb"):
            out[workload] = (
                _machine_result(workload, instructions, express=True),
                _machine_result(workload, instructions, express=False),
            )
        return out

    results = run_once(experiment, benchmark)
    for workload, (express, hop_by_hop) in results.items():
        assert express == hop_by_hop, (
            f"{workload}: express run diverged\n"
            f"  express   : {express}\n  hop-by-hop: {hop_by_hop}")
        cycles, committed, recoveries, completed, crashed, _, _ = express
        assert completed and not crashed
        assert committed >= instructions * 16
