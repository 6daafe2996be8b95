"""Property tests for topology-general machines (W x H tori).

The paper evaluates one fixed 4x4 machine; these tests pin down the
invariants that must hold for *every* shape the parameterised
construction accepts: routing produces valid minimal paths, and a full
machine built through the ``RunSpec`` -> ``from_shape`` -> workload
pipeline still satisfies the coherence invariants once quiesced.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig, parse_shape
from repro.experiments import RunSpec, build_machine
from repro.interconnect.routing import RoutingTable
from repro.interconnect.topology import TorusTopology, node_vertex

SHAPES = [(2, 2), (2, 4), (4, 4), (4, 8)]


def _ring_distance(a: int, b: int, n: int) -> int:
    d = abs(a - b)
    return min(d, n - d)


def _minimal_switch_count(topo: TorusTopology, src: int, dst: int) -> int:
    """Switch vertices on a minimal half-switch route.

    ``dx`` EW-ring hops need ``dx + 1`` EW half-switches (entry included);
    same for NS; a route that turns dimensions additionally crosses the
    EW->NS crossover, visiting ``dx + dy + 2`` switches in total.
    """
    x1, y1 = topo.coords(src)
    x2, y2 = topo.coords(dst)
    dx = _ring_distance(x1, x2, topo.width)
    dy = _ring_distance(y1, y2, topo.height)
    if dx == 0 and dy == 0:
        return 0
    if dy == 0:
        return dx + 1
    if dx == 0:
        return dy + 1
    return dx + dy + 2


def _assert_path_valid(topo: TorusTopology, routing: RoutingTable,
                       src: int, dst: int) -> None:
    path = routing.path(src, dst)
    assert path[0] == node_vertex(src)
    assert path[-1] == node_vertex(dst)
    for here, nxt in zip(path, path[1:]):
        assert topo.has_link(here, nxt), (
            f"{src}->{dst}: {here} -> {nxt} is not a link")
    for vertex in path[1:-1]:
        assert vertex[0] == "sw"
        assert not topo.is_dead(vertex[1])
    assert routing.hop_count(src, dst) == _minimal_switch_count(topo, src, dst)


@pytest.mark.parametrize("width,height", SHAPES)
def test_routing_is_valid_and_minimal_on_all_pairs(width, height):
    topo = TorusTopology(width, height)
    routing = RoutingTable(topo)
    for src in range(topo.num_nodes):
        for dst in range(topo.num_nodes):
            if src != dst:
                _assert_path_valid(topo, routing, src, dst)


@settings(max_examples=12, deadline=None)
@given(width=st.integers(2, 5), height=st.integers(2, 5),
       kill_index=st.integers(0, 10**6))
def test_routing_survives_any_single_half_switch_loss(width, height,
                                                      kill_index):
    """On every shape, killing any one half-switch leaves valid (if no
    longer minimal) routes between all pairs after a recompute."""
    topo = TorusTopology(width, height)
    routing = RoutingTable(topo)
    halves = list(topo.all_half_switches())
    victim = halves[kill_index % len(halves)]
    topo.kill_half_switch(victim)
    routing.recompute()
    for src in range(topo.num_nodes):
        for dst in range(topo.num_nodes):
            if src == dst:
                continue
            path = routing.path(src, dst)
            assert path[0] == node_vertex(src)
            assert path[-1] == node_vertex(dst)
            for here, nxt in zip(path, path[1:]):
                assert topo.has_link(here, nxt)
            assert ("sw", victim) not in path


@pytest.mark.parametrize("width,height", SHAPES)
def test_quiesced_machine_holds_coherence_invariants(width, height):
    """The full stack — RunSpec shape axes, from_shape derived defaults,
    topology-aware workload scaling — yields a machine whose quiesced
    state passes the single-owner/directory checks on every shape."""
    spec = RunSpec(workload="slashcode", instructions=600, preset="tiny",
                   scale=64, torus_width=width, torus_height=height,
                   max_cycles=2_000_000)
    machine = build_machine(spec)
    assert machine.config.num_processors == width * height
    assert machine.workload.num_cpus == width * height
    result = machine.run(spec.instructions, max_cycles=spec.max_cycles)
    assert result.completed and not result.crashed
    assert machine.quiesce()
    machine.check_coherence_invariants()


def test_from_shape_scales_timeouts_with_diameter():
    base = SystemConfig.sim_scaled()
    wide = SystemConfig.from_shape(8, 8)
    assert wide.num_processors == 64
    # 8x8 diameter (4 + 4 + 1) vs 4x4 (2 + 2 + 1): timeouts scale 9/5.
    assert wide.request_timeout == round(base.request_timeout * 9 / 5)
    assert wide.watchdog_timeout == round(base.watchdog_timeout * 9 / 5)
    # Per-node quantities stay per-node.
    assert wide.clb_size_bytes == base.clb_size_bytes
    assert wide.checkpoint_interval == base.checkpoint_interval
    # The preset's own shape is the preset, exactly.
    assert SystemConfig.from_shape(4, 4) == base
    assert SystemConfig.from_shape(2, 2, preset="tiny") == SystemConfig.tiny()
    # Explicit overrides beat derived defaults.
    assert SystemConfig.from_shape(8, 8, request_timeout=123).request_timeout == 123
    with pytest.raises(ValueError):
        SystemConfig.from_shape(1, 4)
    with pytest.raises(ValueError):
        SystemConfig.from_shape(4, 4, preset="huge")


def test_home_hashing_covers_all_nodes():
    for width, height in SHAPES:
        cfg = SystemConfig.from_shape(width, height, preset="tiny")
        homes = {cfg.home_node(block << cfg.block_bits)
                 for block in range(4 * cfg.num_processors)}
        assert homes == set(range(cfg.num_processors))


def test_parse_shape():
    assert parse_shape("4x8") == (4, 8)
    assert parse_shape(" 2 X 2 ") == (2, 2)
    for bad in ("4", "x4", "4x", "4x4x4", "axb"):
        with pytest.raises(ValueError):
            parse_shape(bad)


def test_workload_pools_scale_with_cpu_count():
    from repro.workloads import by_name

    reference = by_name("apache", num_cpus=16, scale=16)
    for cpus in (4, 8, 32, 64):
        scaled = by_name("apache", num_cpus=cpus, scale=16)
        for field in ("ro_shared_blocks", "rw_shared_blocks"):
            per_cpu_ref = getattr(reference.spec, field) / 16
            per_cpu = getattr(scaled.spec, field) / cpus
            assert per_cpu == pytest.approx(per_cpu_ref, rel=0.2), field
        # Per-CPU private regions are untouched.
        assert scaled.spec.private_blocks == reference.spec.private_blocks
    # The 16-CPU reference itself is the identity (bit-identical runs).
    assert by_name("apache", num_cpus=16, scale=16).spec == reference.spec
