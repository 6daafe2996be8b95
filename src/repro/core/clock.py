"""The checkpoint clock: SafetyNet's logical time base (paper §3.2).

A loosely synchronised clock is distributed to all nodes.  Each node sees
edges at ``k * interval + skew(node)``.  As long as the skew between any
two nodes is smaller than the minimum communication latency between them,
no message can be sent in one checkpoint interval and arrive in an earlier
one, so the edges define a valid logical time base (checkpoint lines in
Fig. 3 need not be horizontal in physical time, only causal).

On each edge every component of the node increments its current checkpoint
number (CCN) and the processor checkpoints its registers.
"""

from __future__ import annotations

import random
import sys
from typing import Callable, Dict, List, Optional

from repro.sim.kernel import Simulator

EdgeCallback = Callable[[int], None]  # receives the new CCN

LABEL_EDGE = sys.intern("ckpt.edge")


class ClockConfigError(ValueError):
    """Raised when skews would invalidate the logical time base."""


class CheckpointClock:
    """Drives per-node checkpoint edges with bounded skew.

    The first edge for node ``n`` fires at ``interval + skew[n]`` and sets
    CCN to 2 (all components boot with CCN 1; checkpoint 1 is the initial
    state and the initial recovery point).
    """

    def __init__(
        self,
        sim: Simulator,
        interval: int,
        num_nodes: int,
        *,
        max_skew: int = 0,
        min_network_latency: int = 1,
        rng: Optional[random.Random] = None,
    ) -> None:
        if interval <= 0:
            raise ClockConfigError("checkpoint interval must be positive")
        if max_skew >= min_network_latency:
            raise ClockConfigError(
                f"max skew {max_skew} must be below the minimum network "
                f"latency {min_network_latency} (paper S3.2 validity condition)"
            )
        self.sim = sim
        self.interval = interval
        self.num_nodes = num_nodes
        self.skews: List[int] = []
        for node in range(num_nodes):
            if max_skew <= 0 or rng is None:
                self.skews.append(0)
            else:
                self.skews.append(rng.randrange(max_skew + 1))
        self._callbacks: Dict[int, List[EdgeCallback]] = {n: [] for n in range(num_nodes)}
        self._ccn: List[int] = [1] * num_nodes
        self._started = False

    def on_edge(self, node: int, callback: EdgeCallback) -> None:
        """Register a component callback for node-local edges."""
        self._callbacks[node].append(callback)

    def ccn(self, node: int) -> int:
        return self._ccn[node]

    def edge_time(self, node: int, ccn: int) -> int:
        """Physical cycle at which node reached checkpoint ``ccn``."""
        if ccn <= 1:
            return 0
        return (ccn - 1) * self.interval + self.skews[node]

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for node in range(self.num_nodes):
            self.sim.schedule(
                self.interval + self.skews[node],
                lambda n=node: self._edge(n),
                LABEL_EDGE,
            )

    def _edge(self, node: int) -> None:
        self._ccn[node] += 1
        ccn = self._ccn[node]
        trace = self.sim.trace
        if trace is not None:
            trace.emit(self.sim.now, "ckpt.edge", node, ccn=ccn)
        for callback in self._callbacks[node]:
            callback(ccn)
        self.sim.schedule_after(self.interval, lambda n=node: self._edge(n), LABEL_EDGE)
