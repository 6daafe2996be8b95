"""The full machine: W x H processor-memory nodes on a half-switch torus,
with or without SafetyNet.

:class:`Machine` is the library's main entry point.  It assembles every
substrate (network, coherence, processors, workload), wires in SafetyNet
(checkpoint clock, CLBs, validation, recovery), and runs experiments:

    from repro import Machine, SystemConfig, workloads

    cfg = SystemConfig.sim_scaled()                  # the paper's 4x4
    cfg = SystemConfig.from_shape(4, 8)              # ...or any W x H torus
    machine = Machine(cfg, workloads.apache(num_cpus=cfg.num_processors,
                                            scale=16), seed=1)
    result = machine.run(instructions_per_cpu=20_000)
    print(result.cycles, result.crashed, machine.recovery.stats.recoveries)
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.checkpoint.controllers import CONTROLLER_NODE, ServiceControllers
from repro.coherence.cache import reset_txn_ids
from repro.coherence.protocol import resolve_protocol
from repro.coherence.state import CacheState
from repro.config import SystemConfig
from repro.core.clock import CheckpointClock
from repro.core.recovery import RecoveryManager
from repro.detection.checker import MessageChecker
from repro.detection.codes import CRC16, ErrorCode
from repro.detection.faults import CorruptMessageFault, MisrouteMessageFault
from repro.interconnect.faults import DropMessageFault, KillSwitchFault
from repro.interconnect.messages import reset_msg_ids
from repro.interconnect.network import Network
from repro.interconnect.routing import RoutingTable
from repro.interconnect.topology import HalfSwitchId, TorusTopology
from repro.sim.kernel import Simulator
from repro.sim.stats import StatsRegistry
from repro.system.node import IoHooks, Node

#: Cycle budget :meth:`Machine.quiesce` gives a machine to drain.
QUIESCE_MAX_WAIT_CYCLES = 1_000_000


@dataclass
class RunResult:
    """Outcome of one :meth:`Machine.run`."""

    cycles: int
    committed_instructions: int
    target_instructions: int
    completed: bool
    crashed: bool
    crash_reason: Optional[str]
    recoveries: int
    lost_instructions: int
    reexecuted_instructions: int
    stats: Dict[str, float] = field(default_factory=dict)


class Machine:
    """A complete simulated multiprocessor."""

    def __init__(
        self,
        config: SystemConfig,
        workload,
        *,
        seed: int = 1,
        detection_latency: int = 0,
        io_output_period: int = 0,
        io_input_period: int = 0,
        error_code: Optional[ErrorCode] = None,
    ) -> None:
        self.config = config
        self.workload = workload
        self.seed = seed
        # Rewind the process-global id streams: txn/msg ids leak into
        # crash-reason strings, so a run's outcome must not depend on
        # what else this process simulated first (golden replays, pool
        # workers reusing processes, retried fabric cells).
        reset_txn_ids()
        reset_msg_ids()
        self.sim = Simulator()
        self.stats = StatsRegistry()
        self.protocol = resolve_protocol(config.protocol)
        rngs = {"skew": random.Random(seed * 7919 + 1),
                "external": random.Random(seed * 104729 + 2)}

        # --- interconnect -------------------------------------------------
        self.topology = TorusTopology(config.torus_width, config.torus_height)
        self.routing = RoutingTable(self.topology)
        self.network = Network(
            self.sim, self.topology, self.routing,
            stats=self.stats,
            switch_latency=config.switch_latency,
            link_latency=config.link_latency,
            bytes_per_cycle=config.link_bandwidth_bytes_per_cycle,
            buffer_capacity=config.switch_buffer_messages,
            arbiter=config.arbiter,
        )

        # --- logical time -------------------------------------------------
        n = config.num_processors
        self.clock = CheckpointClock(
            self.sim, config.checkpoint_interval, n,
            max_skew=config.max_clock_skew if config.safetynet_enabled else 0,
            min_network_latency=config.min_network_latency,
            rng=rngs["skew"],
        )

        # --- addresses ----------------------------------------------------
        # Same hash as SystemConfig.home_node, bound as a closure over
        # precomputed ints: home_of runs on every miss/writeback/upgrade.
        block_bits = config.block_bits
        self._block_bits = block_bits
        self.home_of = lambda addr: (addr >> block_bits) % n

        # --- service controllers & nodes -----------------------------------
        self.controllers = ServiceControllers(
            self.sim, config, self.network, n, self.stats
        )
        self._done_count = 0
        self.crashed = False
        self.crash_reason: Optional[str] = None
        self.checkers: List[MessageChecker] = []

        def io_factory(node: Node) -> Optional[IoHooks]:
            if not (io_output_period or io_input_period):
                return None
            return IoHooks(
                node.node_id, node.commit, node.input_log, rngs["external"],
                output_period=io_output_period, input_period=io_input_period,
            )

        if config.safetynet_enabled:
            def make_next_edge(nid: int):
                return lambda: self.clock.edge_time(nid, self.clock.ccn(nid) + 1)
        else:
            def make_next_edge(nid: int):
                return lambda: 1 << 62

        self.nodes: List[Node] = []
        for node_id in range(n):
            node = Node(
                self.sim, node_id, config, self.network, self.stats, workload,
                self.home_of, self._on_fault,
                next_edge_time=make_next_edge(node_id),
                edge_time_of=(lambda k, nid=node_id: self.clock.edge_time(nid, k)),
                detection_latency=detection_latency,
                on_target_reached=self._on_core_done,
                io_hooks_factory=io_factory if (io_output_period or io_input_period) else None,
                on_validate_ready=(
                    self.controllers.on_validate_ready
                    if node_id == CONTROLLER_NODE
                    else None
                ),
                protocol=self.protocol,
            )
            self.nodes.append(node)
            if error_code is not None:
                checker = MessageChecker(
                    self.sim, node_id, error_code, node.deliver,
                    self._on_fault, self.stats,
                )
                self.checkers.append(checker)
                self.network.attach(node_id, checker.deliver)
            else:
                self.network.attach(node_id, node.deliver)
            if config.safetynet_enabled:
                self.clock.on_edge(node_id, node.on_edge)

        # --- recovery ------------------------------------------------------
        self.recovery = RecoveryManager(
            self.sim, config, self.network, self.nodes, self.controllers,
            self.stats, on_crash=self._on_crash,
            on_recovery_complete=lambda: self._on_core_done(-1),
        )
        self._faults: List = []

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def attach_tracer(self, trace) -> None:
        """Journal this run's SafetyNet lifecycle into ``trace``, a
        :class:`repro.obs.trace.TraceLog` or any object with an
        ``emit(cycle, kind, node=..., **data)`` method: checkpoint edges,
        validation announcements and sign-offs, RPCN advances/applies,
        fault injections, detections, rollback begin/restore/end, and
        message losses.

        The journal hangs off the simulator (:attr:`Simulator.trace
        <repro.sim.kernel.Simulator.trace>`), where every emitter reads
        it, so it may be attached at any point before :meth:`run` —
        before or after the ``inject_*`` calls.  Observation only: the
        journal never schedules kernel events or touches RNG streams, so
        a traced run is bit-identical to an untraced one
        (``tests/test_obs.py`` holds this).
        """
        self.sim.trace = trace

    # ------------------------------------------------------------------
    # Fault injection (the paper's two experiments)
    # ------------------------------------------------------------------
    def inject_transient_faults(self, period: int, *, first_at: Optional[int] = None,
                                count: Optional[int] = None) -> DropMessageFault:
        """Experiment 2: drop one message inside a switch every ``period``
        cycles (the paper: every 100 million cycles)."""
        fault = DropMessageFault(self.sim, self.network, period,
                                first_at=first_at, count=count)
        self._faults.append(fault)
        return fault

    def inject_switch_kill(self, half: Optional[HalfSwitchId] = None,
                           at_cycle: int = 1_000_000) -> KillSwitchFault:
        """Experiment 3: kill a half-switch (default: ew(1,0)) at
        ``at_cycle`` (the paper: after one million cycles).  Raises
        ValueError for a half-switch outside the torus."""
        if half is None:
            half = HalfSwitchId("ew", 1 % self.config.torus_width, 0)
        self.topology.switch_id(half)  # reject it now, not at at_cycle
        fault = KillSwitchFault(self.sim, self.network, half, at_cycle)
        self._faults.append(fault)
        return fault

    def inject_corruption_faults(self, period: int, *,
                                 first_at: Optional[int] = None,
                                 count: Optional[int] = None) -> CorruptMessageFault:
        """Table 1's message-corruption transient: detected (or not) by
        the machine's error-detection code — pass ``error_code=`` to the
        constructor to enable checking."""
        fault = CorruptMessageFault(self.sim, self.network, period,
                                    first_at=first_at, count=count)
        self._faults.append(fault)
        return fault

    def inject_misroute_faults(self, period: int, *,
                               first_at: Optional[int] = None,
                               count: Optional[int] = None) -> MisrouteMessageFault:
        """Table 1's misrouted-message transient: caught by the receiving
        endpoint's illegal-message detection (needs ``error_code=``)."""
        fault = MisrouteMessageFault(self.sim, self.network, period,
                                     first_at=first_at, count=count)
        self._faults.append(fault)
        return fault

    def disarm_faults(self) -> int:
        """Permanently stop every armed fault injector; returns how many.

        Campaign-level use: stop wounding the machine (e.g. after a
        measurement phase, or before draining it for invariant checks)
        while leaving the machine itself running.  Idempotent — injectors
        that already stopped are counted but unaffected.
        """
        for fault in self._faults:
            fault.stop()
        return len(self._faults)

    # ------------------------------------------------------------------
    # Run control
    # ------------------------------------------------------------------
    def _on_fault(self, reason: str) -> None:
        self.recovery.report_fault(reason)

    def _on_crash(self, reason: str) -> None:
        self.crashed = True
        self.crash_reason = reason

    def _on_core_done(self, node_id: int) -> None:
        # Recount from ground truth: recovery can roll a finished core back
        # below its target (it re-executes and finishes again later).
        self._done_count = sum(1 for n in self.nodes if n.core.done)
        if self._done_count >= len(self.nodes):
            self.sim.stop("workload complete")

    def is_active(self) -> bool:
        return not self.crashed and self._done_count < len(self.nodes)

    def _watchdog_should_act(self) -> bool:
        """Whether a stalled recovery point warrants a recovery.

        True while the workload runs, and also afterwards while any
        coherence transaction's interval is still open: a recovery point
        that stalls with protocol state outstanding means a lost message
        orphaned a transaction — exactly the fault the watchdog exists to
        catch (paper §3.5) — even if every core already hit its target.
        """
        if self.is_active():
            return True
        if self.crashed:
            return False
        return any(
            node.cache.min_open_interval() is not None
            or node.home.min_open_interval() is not None
            for node in self.nodes
        )

    def run(self, instructions_per_cpu: int,
            max_cycles: Optional[int] = None, *,
            warmup: int = 0) -> RunResult:
        """Run until every CPU retires the target instruction count (the
        paper's fixed-work methodology), a crash, or ``max_cycles`` (an
        absolute cycle).

        With ``warmup`` > 0 the run follows the paper's methodology: each
        CPU first retires ``warmup`` instructions to warm the caches, the
        statistics reset, and ``instructions_per_cpu`` more are measured.
        The result (cycles, committed and lost work, recoveries, stats)
        covers only the measured phase; positions and architected state
        carry over.  A warm-up that crashes or stops short is returned
        as it is.
        """
        if warmup > 0:
            warm = self.run(warmup, max_cycles)
            if warm.crashed or not warm.completed:
                return warm
            self.stats.reset()
            start_cycle = self.sim.now
            start_committed = sum(node.core.position for node in self.nodes)
            start_lost = self.recovery.stats.total_lost_instructions
            start_recoveries = self.recovery.stats.recoveries
            result = self.run(warmup + instructions_per_cpu, max_cycles)
            result.cycles = self.sim.now - start_cycle
            result.committed_instructions -= start_committed
            result.target_instructions = instructions_per_cpu * len(self.nodes)
            result.lost_instructions = (
                self.recovery.stats.total_lost_instructions - start_lost
            )
            result.recoveries = self.recovery.stats.recoveries - start_recoveries
            return result
        target = instructions_per_cpu
        self._done_count = 0
        if self.config.safetynet_enabled:
            self.clock.start()
            for node in self.nodes:
                node.validation.start()
            self.recovery.start_watchdog(self._watchdog_should_act)
        for node in self.nodes:
            node.core.start(target)
        limit = max_cycles if max_cycles is not None else (1 << 60)
        while self.is_active() and self.sim.now < limit and self.sim.pending():
            self.sim.run(limit=limit)
            if self.sim.stop_reason and self.sim.stop_reason.startswith("crash"):
                break
            if self.sim.stop_reason == "workload complete":
                break
        committed = sum(node.core.position for node in self.nodes)
        reexec = sum(
            self.stats.counter(f"node{n}.core.instructions_reexecuted").value
            for n in range(len(self.nodes))
        )
        return RunResult(
            cycles=self.sim.now,
            committed_instructions=committed,
            target_instructions=target * len(self.nodes),
            completed=self._done_count >= len(self.nodes),
            crashed=self.crashed,
            crash_reason=self.crash_reason,
            recoveries=self.recovery.stats.recoveries,
            lost_instructions=self.recovery.stats.total_lost_instructions,
            reexecuted_instructions=reexec,
            stats=self.stats.snapshot(),
        )

    # ------------------------------------------------------------------
    # Whole-machine invariants and state (tests, analysis)
    # ------------------------------------------------------------------
    def quiesce(self) -> bool:
        """Freeze the cores and drain all protocol/recovery activity.

        Coherence invariants are only meaningful on a quiesced machine:
        a run cut off mid-transaction legitimately has directory entries
        pointing at requestors whose data is still in flight.  Fault
        injectors are disarmed first — a machine wounded faster than it
        can recover never drains.  Returns True if the machine fully
        drained within :data:`QUIESCE_MAX_WAIT_CYCLES`.
        """
        self.disarm_faults()
        for node in self.nodes:
            node.core.freeze()

        def drained() -> bool:
            if self.network.in_flight_count or self.recovery.recovering:
                return False
            for node in self.nodes:
                if node.cache.mshrs or node.cache.wb_txns or node.home.busy:
                    return False
            return True

        deadline = self.sim.now + QUIESCE_MAX_WAIT_CYCLES
        while not drained() and self.sim.now < deadline and self.sim.pending():
            self.sim.run(limit=min(deadline, self.sim.now + 1_000))
            # A recovery completing mid-drain resumes the cores; re-freeze.
            for node in self.nodes:
                node.core.freeze()
        return drained()

    def owner_of(self, addr: int) -> Optional[int]:
        """Which cache owns ``addr`` (None = memory), per the caches."""
        owners = [
            node.node_id
            for node in self.nodes
            if addr in node.cache.owned_state()
        ]
        if len(owners) > 1:
            raise AssertionError(f"multiple owners for {addr:#x}: {owners}")
        return owners[0] if owners else None

    def memory_value(self, addr: int) -> int:
        """The architected value of a block: owner cache's copy, else the
        home memory's copy."""
        owner = self.owner_of(addr)
        if owner is not None:
            return self.nodes[owner].cache.owned_state()[addr][1]
        return self.nodes[self.home_of(addr)].home.value_of(addr)

    def check_coherence_invariants(self) -> None:
        """Single-owner + directory-consistency checks (quiesced state)."""
        owned_by: Dict[int, int] = {}
        for node in self.nodes:
            for addr in node.cache.owned_state():
                if addr in owned_by:
                    raise AssertionError(
                        f"block {addr:#x} owned by both node {owned_by[addr]} "
                        f"and node {node.node_id}"
                    )
                owned_by[addr] = node.node_id
        for node in self.nodes:
            for addr, entry in node.home.directory.items():
                if self.home_of(addr) != node.node_id:
                    raise AssertionError(
                        f"directory entry for {addr:#x} at wrong home"
                    )
                actual = owned_by.get(addr)
                if entry.owner is None and actual is not None:
                    raise AssertionError(
                        f"{addr:#x}: dir says memory-owned, node {actual} owns it"
                    )
                if entry.owner is not None and actual != entry.owner:
                    raise AssertionError(
                        f"{addr:#x}: dir says node {entry.owner}, "
                        f"actual owner {actual}"
                    )
        # E-state invariants (mesi/moesi): an exclusive-clean copy is the
        # only copy anywhere, and its data matches the home memory image
        # (E is clean by definition — a divergence means a store skipped
        # the silent-upgrade path).
        for node in self.nodes:
            for block in node.cache.resident_blocks():
                if block.state != CacheState.EXCLUSIVE:
                    continue
                addr = block.addr
                for other in self.nodes:
                    if other is node:
                        continue
                    if other.cache.lookup(addr) is not None:
                        raise AssertionError(
                            f"{addr:#x}: E at node {node.node_id} but node "
                            f"{other.node_id} also holds a copy"
                        )
                home_value = self.nodes[self.home_of(addr)].home.value_of(addr)
                if block.data != home_value:
                    raise AssertionError(
                        f"{addr:#x}: E copy diverged from memory "
                        f"({block.data} != {home_value})"
                    )
