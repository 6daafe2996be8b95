"""The redundant system service controllers (paper §3.1, §3.5).

Collect per-node sign-offs and broadcast recovery-point advances.  The
pair is modelled as one logical entity that is never a single point of
failure (the paper uses redundant controllers; we model their function
and their message traffic, not their internals).

The recovery point is the minimum over every node's highest announced
sign-off, recomputed on each new sign-off (a few hundred per run even on
an 8x8 machine).
"""

from __future__ import annotations

from typing import Dict

from repro.config import SystemConfig
from repro.interconnect.messages import Message, MessageKind
from repro.interconnect.network import Network
from repro.sim.kernel import Simulator
from repro.sim.stats import StatsRegistry


class ServiceControllers:
    """Collects VALIDATE_READY sign-offs; broadcasts RPCN advances."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        network: Network,
        num_nodes: int,
        stats: StatsRegistry,
        *,
        home_node: int = 0,
    ) -> None:
        self.sim = sim
        self.config = config
        self.network = network
        self.num_nodes = num_nodes
        self.stats = stats
        self.home_node = home_node
        self.rpcn = 1
        self.ready: Dict[int, int] = {n: 1 for n in range(num_nodes)}
        self.last_advance_cycle = 0
        #: Optional :class:`repro.obs.trace.TraceLog` (wired by
        #: ``Machine.attach_tracer``).
        self.trace = None
        self.c_advances = stats.counter("controllers.rpcn_advances")
        self.c_broadcasts = stats.counter("controllers.broadcasts")

    @property
    def min_ready(self) -> int:
        """The minimum over every node's announced sign-off."""
        return min(self.ready.values())

    def on_validate_ready(self, node: int, k: int) -> None:
        old = self.ready.get(node)
        if old is None or k <= old:
            return  # unknown node or duplicate/stale sign-off: min unchanged
        self.ready[node] = k
        trace = self.trace
        if trace is not None:
            trace.emit(self.sim.now, "validate.signoff", node,
                       k=k, previous=old)
        min_ready = self.min_ready
        if min_ready > self.rpcn:
            previous = self.rpcn
            self.rpcn = min_ready
            self.last_advance_cycle = self.sim.now
            self.c_advances.add()
            trace = self.trace
            if trace is not None:
                trace.emit(self.sim.now, "rpcn.advance",
                           rpcn=self.rpcn, previous=previous)
            self._broadcast(self.rpcn)

    def _broadcast(self, rpcn: int) -> None:
        self.c_broadcasts.add()
        for node in range(self.num_nodes):
            self.network.send(
                Message(MessageKind.RPCN_BROADCAST, src=self.home_node,
                        dst=node, ack_count=rpcn)
            )

    def on_recovery(self, rpcn: int) -> None:
        """Reset sign-off state; nodes re-announce after restart."""
        self.ready = {n: rpcn for n in range(self.num_nodes)}
        self.last_advance_cycle = self.sim.now

    def stalled_for(self) -> int:
        """Cycles since the recovery point last advanced (watchdog input)."""
        return self.sim.now - self.last_advance_cycle
