"""System recovery and restart (paper §2.5, §3.6).

When any component detects a fault (request timeout, watchdog on a stalled
recovery point, error-code check), it notifies the service controllers,
which broadcast a recovery message with the recovery-point checkpoint
number.  Recovery then proceeds in the paper's order:

1. drain the interconnect and discard all in-progress transaction state
   (it is unvalidated by definition — logically after the recovery point);
2. processors restore register checkpoints; memories sequentially undo
   their CLBs; caches undo their CLBs and invalidate every block touched
   in an unvalidated interval;
3. reconfigure if needed (recompute routes around dead switches);
4. two-phase restart: every node reports done, then the controllers
   broadcast the restart message.

Without SafetyNet, the same fault detection simply crashes the machine
(the paper's "unprotected" baseline bars).  The crash is recorded only
in :attr:`RecoveryManager.stats`, where the machine reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.config import SystemConfig
from repro.interconnect.network import Network
from repro.sim.kernel import Simulator
from repro.sim.stats import StatsRegistry

#: Cycles to undo one CLB entry in a controller's sequential unroll.
CLB_UNROLL_CYCLES_PER_ENTRY = 8


@dataclass
class RecoveryStats:
    recoveries: int = 0
    faults_reported: int = 0
    crashed: bool = False
    crash_reason: Optional[str] = None
    total_lost_instructions: int = 0
    total_entries_unrolled: int = 0
    total_messages_discarded: int = 0
    reconfigurations: int = 0
    recovery_latencies: List[int] = field(default_factory=list)
    fault_log: List[str] = field(default_factory=list)

    @property
    def mean_recovery_latency(self) -> float:
        if not self.recovery_latencies:
            return 0.0
        return sum(self.recovery_latencies) / len(self.recovery_latencies)


class RecoveryManager:
    """Machine-wide recovery orchestration.

    The recovery/restart broadcasts travel on the service controllers'
    dedicated channel (modelled as a fixed ``service_broadcast_latency``),
    not the possibly-faulty data interconnect — matching the paper's
    redundant service controllers that "help coordinate ... system restart
    after recovery".
    """

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        network: Network,
        nodes: List,          # objects with cache/home/core/commit attributes
        controllers,          # ServiceControllers
        stats: StatsRegistry,
        *,
        on_recovery_complete: Optional[Callable[[], None]] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.network = network
        self.nodes = nodes
        self.controllers = controllers
        self.stats_registry = stats
        self.on_recovery_complete = on_recovery_complete

        self.stats = RecoveryStats()
        self.recovering = False
        self._watchdog_running = False
        self.h_recovery_latency = stats.histogram("recovery.latency_cycles")
        self.h_lost_work = stats.histogram("recovery.lost_instructions")

    # ------------------------------------------------------------------
    # Fault entry points
    # ------------------------------------------------------------------
    def report_fault(self, reason: str) -> None:
        """A component detected a fault (timeout, bad CRC, watchdog...)."""
        self.stats.faults_reported += 1
        self.stats.fault_log.append(f"@{self.sim.now}: {reason}")
        trace = self.sim.trace
        if trace is not None:
            trace.emit(self.sim.now, "detect.fault", reason=reason,
                       subsumed=self.recovering)
        if not self.config.safetynet_enabled:
            self._crash(reason)
            return
        if self.recovering:
            return  # already handling one; this detection is subsumed
        if self.stats.recoveries >= self.config.max_recoveries:
            self._crash(f"recovery livelock guard tripped after {reason}")
            return
        self.recovering = True
        if trace is not None:
            trace.emit(self.sim.now, "recovery.begin", reason=reason)
        for node in self.nodes:
            node.core.freeze()
        started = self.sim.now
        self.sim.schedule_after(
            self.config.service_broadcast_latency,
            lambda: self._do_recover(started),
            "recovery.broadcast",
        )

    def _crash(self, reason: str) -> None:
        if self.stats.crashed:
            return
        self.stats.crashed = True
        self.stats.crash_reason = reason
        self.sim.stop(f"crash: {reason}")

    # ------------------------------------------------------------------
    # The recovery sequence
    # ------------------------------------------------------------------
    def _do_recover(self, started: int) -> None:
        rpcn = self.controllers.rpcn
        # Step 1: drain the interconnect; discard in-flight transactions.
        discarded = self.network.drain()
        self.stats.total_messages_discarded += discarded
        # Step 2: every component restores checkpoint `rpcn`.
        max_entries = 0
        episode_entries = 0
        lost = 0
        for node in self.nodes:
            entries = node.cache.recover_to(rpcn)
            entries += node.home.recover_to(rpcn)
            max_entries = max(max_entries, entries)
            episode_entries += entries
            lost += node.core.recover_to(rpcn)
            if node.commit is not None:
                node.commit.discard_from(rpcn)
            node.validation.on_recovery(rpcn)
        self.stats.total_entries_unrolled += episode_entries
        self.stats.total_lost_instructions += lost
        self.h_lost_work.record(lost)
        trace = self.sim.trace
        if trace is not None:
            trace.emit(self.sim.now, "recovery.restore", rpcn=rpcn,
                       messages_discarded=discarded,
                       entries_unrolled=episode_entries,
                       lost_instructions=lost)
        self.controllers.on_recovery(rpcn)
        # Step 3: reconfigure around dead elements, if any.
        if self.network.topology.dead_switches:
            self.network.reconfigure()
            self.stats.reconfigurations += 1
        # Step 4: two-phase restart once the slowest node finishes its
        # sequential CLB unroll.
        unroll_latency = (
            self.config.recovery_fixed_latency
            + max_entries * CLB_UNROLL_CYCLES_PER_ENTRY
        )
        self.sim.schedule_after(
            unroll_latency + self.config.service_broadcast_latency,
            lambda: self._restart(started),
            "recovery.restart",
        )

    def _restart(self, started: int) -> None:
        self.recovering = False
        self.stats.recoveries += 1
        latency = self.sim.now - started
        self.stats.recovery_latencies.append(latency)
        self.h_recovery_latency.record(latency)
        trace = self.sim.trace
        if trace is not None:
            trace.emit(self.sim.now, "recovery.end",
                       latency=latency, recovery=self.stats.recoveries)
        for node in self.nodes:
            node.core.resume()
        if self.on_recovery_complete is not None:
            self.on_recovery_complete()

    # ------------------------------------------------------------------
    # Watchdog: a recovery point that cannot advance implies a lost
    # message somewhere (paper §3.5) — trigger recovery.
    # ------------------------------------------------------------------
    def start_watchdog(self, is_active: Callable[[], bool]) -> None:
        if self._watchdog_running:
            return
        self._watchdog_running = True
        self._watchdog_tick(is_active)

    def _watchdog_tick(self, is_active: Callable[[], bool]) -> None:
        if (
            not self.recovering
            and is_active()
            and self.controllers.stalled_for() > self.config.watchdog_timeout
        ):
            self.report_fault(
                f"watchdog: recovery point stalled at {self.controllers.rpcn} "
                f"for {self.controllers.stalled_for()} cycles"
            )
        self.sim.schedule_after(
            max(1, self.config.watchdog_timeout // 4),
            lambda: self._watchdog_tick(is_active),
            "recovery.watchdog",
        )
