"""The checkpoint-lifecycle subsystem: participant protocol conformance,
sign-off minimum tracking, and dropped-coordination resilience."""

import random

from repro.checkpoint import (
    CheckpointParticipant,
    ServiceControllers,
    missing_members,
)
from repro.coherence.snooping import SnoopingSystem
from repro.interconnect.messages import MessageKind
from tests.conftest import Driver, tiny_machine


# ---------------------------------------------------------------------------
# Protocol conformance
# ---------------------------------------------------------------------------
def test_machine_components_conform_to_participant_protocol():
    machine = tiny_machine()
    node = machine.nodes[0]
    for component in (node.cache, node.home, node.core):
        assert missing_members(component) == [], component
        assert isinstance(component, CheckpointParticipant)


def test_commit_buffer_conforms_when_io_is_enabled():
    from repro.config import SystemConfig
    from repro.system.machine import Machine
    from repro.workloads import apache

    machine = Machine(SystemConfig.tiny(), apache(num_cpus=4, scale=64),
                      seed=1, io_output_period=50, io_input_period=0)
    commit = machine.nodes[0].commit
    assert commit is not None
    assert missing_members(commit) == []
    assert isinstance(commit, CheckpointParticipant)
    # And it is actually wired into the lifecycle, not just shaped right.
    assert commit in machine.nodes[0].validation.participants


def test_snooping_variants_conform_to_participant_protocol():
    system = SnoopingSystem(num_caches=2)
    for component in (*system.caches, system.memory):
        assert missing_members(component) == [], component
        assert isinstance(component, CheckpointParticipant)


def test_snooping_on_edge_never_rewinds_bus_time():
    system = SnoopingSystem(num_caches=2, requests_per_checkpoint=4)
    cache = system.caches[0]
    cache.ccn = 5          # as if bus order already reached interval 5
    cache.on_edge(3)       # a stale external edge must not rewind
    assert cache.ccn == 5
    cache.on_edge(7)
    assert cache.ccn == 7


# ---------------------------------------------------------------------------
# Sign-off minimum and recovery-point advance
# ---------------------------------------------------------------------------
def test_controllers_running_min_matches_full_scan():
    machine = tiny_machine()
    controllers = ServiceControllers(
        machine.sim, machine.config, machine.network, 4, machine.stats
    )
    rng = random.Random(42)
    for _ in range(500):
        node = rng.randrange(4)
        bump = rng.randrange(3)
        controllers.on_validate_ready(
            node, controllers.ready[node] + bump)
        assert controllers.min_ready == min(controllers.ready.values())
        assert controllers.rpcn == max(1, controllers.min_ready)
    # Recovery resets the conversation; the minimum follows.
    controllers.on_recovery(controllers.rpcn)
    assert controllers.min_ready == controllers.rpcn
    assert controllers.min_ready == min(controllers.ready.values())
    controllers.on_validate_ready(0, controllers.rpcn + 4)
    assert controllers.min_ready == min(controllers.ready.values())


def test_controllers_ignore_stale_and_unknown_signoffs():
    machine = tiny_machine()
    controllers = ServiceControllers(
        machine.sim, machine.config, machine.network, 4, machine.stats
    )
    for node in range(4):
        controllers.on_validate_ready(node, 5)
    assert controllers.rpcn == 5
    controllers.on_validate_ready(2, 3)      # stale: below its own sign-off
    controllers.on_validate_ready(99, 7)     # not a node of this machine
    assert controllers.rpcn == 5
    assert controllers.min_ready == 5


# ---------------------------------------------------------------------------
# Dropped-coordination-message resilience (paper §3.5 robustness)
# ---------------------------------------------------------------------------
def test_lost_validate_ready_is_resynced_without_recovery():
    d = Driver(tiny_machine())
    d.start_safetynet()
    interval = d.machine.config.checkpoint_interval
    resync = d.machine.config.validation_resync_interval
    # Drop node 3's first sign-off announcement, once.
    dropped = []

    def drop_one(msg, vertex):
        if (msg.kind == MessageKind.VALIDATE_READY and msg.src == 3
                and not dropped):
            dropped.append(d.sim.now)
            return True
        return False

    d.machine.network.add_drop_hook(drop_one)
    d.sim.run(limit=2 * interval + 2 * resync)
    assert dropped, "the hook never saw a VALIDATE_READY from node 3"
    # A lost coordination message only *delays* validation: the resync
    # timer (or the next edge) re-announces and the recovery point still
    # advances, with no recovery triggered.
    assert d.machine.controllers.rpcn >= 2
    assert d.machine.recovery.stats.recoveries == 0
