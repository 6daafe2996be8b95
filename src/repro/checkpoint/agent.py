"""Per-node checkpoint validation: readiness, sign-off, RPCN application.

Checkpoint k may become the recovery point once *every* component agrees
that all execution before checkpoint k was fault-free (paper §2.4, §3.5):
a cache controller once every transaction it initiated in intervals
before k completed; a directory once every transaction it serialised with
an atomicity interval before k received its FINAL_ACK; optionally a
configured detection latency must elapse past the edge (slow checkers:
long CRCs, signature comparison, timeouts).

Coordination is two-phase and off the critical path (a fuzzy barrier):
agents announce readiness to the (redundant) service controllers over the
interconnect; the controllers broadcast the new recovery-point checkpoint
number (RPCN) once everyone signed off.

**Announcements are edge-triggered.**  The agent recomputes
``highest_ready()`` only when something that can raise it happens:

* a checkpoint-clock edge fires (every participant's CCN steps);
* a participant reports completion of a transaction that began in an
  earlier interval (the :class:`~repro.checkpoint.participant.
  CheckpointParticipant` ``readiness_changed`` callback);
* a detection-latency window closes (a timer armed for exactly that
  cycle);
* recovery resets the lifecycle (the agent re-announces on behalf of the
  restored state).

A duplicate announcement (same checkpoint already sent) is suppressed —
the controllers remember each node's sign-off, so repeating it carries no
information.  The paper's robustness property (a lost coordination
message only *delays* validation) is preserved by a slow re-announce
timer: while an announcement is outstanding (sent but the RPCN has not
caught up), the agent re-sends after ``validation_resync_interval``
cycles, and the watchdog turns a persistent stall into a recovery.

``event_driven_validation`` selects the *scheduling skeleton* only; the
announce policy above is shared, so both modes emit identical coordination
traffic and produce bit-identical runs (the differential guard in
``benchmarks/test_validation_hotpath.py``):

* **event-driven** (default): no periodic events at all — the triggers
  plus the (send-armed, dormant-when-idle) resync timer carry the whole
  lifecycle;
* **polled** (legacy): the historical ``validation_poll_interval`` poll
  loop keeps re-running ``announce_if_ready`` forever.  With complete
  triggers every poll is a no-op, which is exactly what the guard
  checks: if a poll ever catches readiness the triggers missed, the two
  modes diverge and the equivalence benchmark fails.
"""

from __future__ import annotations

import sys
from typing import List, Optional, Sequence

from repro.checkpoint.participant import CheckpointParticipant
from repro.config import SystemConfig
from repro.interconnect.messages import Message, MessageKind
from repro.interconnect.network import Network
from repro.sim.kernel import Simulator
from repro.sim.stats import StatsRegistry

# Hot-path event labels, pre-interned once per process (the poll label is
# the historical dominant idle event; see ROADMAP "event-label allocation").
LABEL_POLL = sys.intern("validate.poll")
LABEL_ANNOUNCE = sys.intern("validate.announce")
LABEL_RESYNC = sys.intern("validate.resync")
LABEL_DETECT = sys.intern("validate.detect")


class ValidationAgent:
    """One node's validation logic: decides readiness, announces it, and
    applies RPCN broadcasts to the node's participants."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        config: SystemConfig,
        network: Network,
        participants: Sequence[CheckpointParticipant],
        *,
        edge_time,
        controller_node: int = 0,
        detection_latency: int = 0,
        stats: Optional[StatsRegistry] = None,
        event_driven: Optional[bool] = None,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.config = config
        self.network = network
        self.participants: List[CheckpointParticipant] = list(participants)
        self.edge_time = edge_time
        self.controller_node = controller_node
        self.detection_latency = detection_latency
        self.event_driven = (
            config.event_driven_validation if event_driven is None
            else event_driven
        )
        self.rpcn = 1
        self._announced = 0
        self._last_send: Optional[int] = None
        self._running = False
        self._announce_pending = False
        self._resync_armed = False
        self._detect_armed_for = 0
        #: Optional :class:`repro.obs.trace.TraceLog` (wired by
        #: ``Machine.attach_tracer``); None keeps the lifecycle untraced.
        self.trace = None
        for participant in self.participants:
            participant.on_readiness_changed = self._on_readiness_changed
        stats = stats or StatsRegistry()
        ns = f"node{node_id}.validation"
        self.c_announces = stats.counter(f"{ns}.announces")
        self.c_lag = stats.counter(f"{ns}.rpcn_lag_intervals")
        self.c_updates = stats.counter(f"{ns}.rpcn_updates")

    # ------------------------------------------------------------------
    # Run control
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        if not self.event_driven:
            self._poll()

    def stop(self) -> None:
        self._running = False

    def _poll(self) -> None:
        if not self._running:
            return
        self.announce_if_ready()
        self.sim.schedule_after(
            self.config.validation_poll_interval, self._poll, LABEL_POLL
        )

    # ------------------------------------------------------------------
    # Lifecycle triggers
    # ------------------------------------------------------------------
    def on_edge(self, new_ccn: int) -> None:
        """Node-local checkpoint-clock edge: every participant steps its
        CCN (the core shadow-copies registers), then sign-off is
        re-evaluated — the edge is what makes the *previous* interval
        validatable."""
        for participant in self.participants:
            participant.on_edge(new_ccn)
        self.announce_if_ready()

    def _on_readiness_changed(self) -> None:
        """A participant completed its last pre-edge transaction."""
        self.announce_if_ready()

    # ------------------------------------------------------------------
    # Readiness
    # ------------------------------------------------------------------
    def _raw_ready(self) -> int:
        """Highest sign-off-able checkpoint, before detection gating."""
        participants = self.participants
        k = min(p.ccn for p in participants)
        for p in participants:
            bound = p.min_open_interval()
            if bound is not None and bound < k:
                k = bound
        return k

    def _detection_gated(self, k: int) -> int:
        """Lower ``k`` past checkpoints whose detection window is open."""
        while k > self.rpcn and (
            self.sim.now < self.edge_time(k) + self.detection_latency
        ):
            k -= 1
        return k

    def highest_ready(self) -> int:
        """The highest checkpoint number this node can sign off on."""
        k = self._raw_ready()
        if self.detection_latency:
            k = self._detection_gated(k)
        return k

    def announce_if_ready(self) -> None:
        """Queue a VALIDATE_READY for the highest sign-off-able checkpoint,
        unless that checkpoint was already announced (the controllers
        remember it; re-sending is the resync timer's job).

        The send itself happens in a dedicated zero-delay event rather
        than inline: readiness triggers fire inside network-hop dispatches,
        and injecting new traffic mid-dispatch would make link-contention
        order depend on how the hop scheduler batches same-cycle hops.
        A fresh event sequences after every already-queued event of the
        current cycle, however the hops were scheduled."""
        if not self._running:
            return
        k = self._raw_ready()
        if self.detection_latency:
            gated = self._detection_gated(k)
            if gated < k:
                # Wake when the next checkpoint's window closes, so the
                # announcement lands at that exact cycle in both modes.
                self._arm_detection_timer(gated + 1)
            k = gated
        if k <= self.rpcn or k <= self._announced:
            return
        if self._announce_pending:
            return
        self._announce_pending = True
        self.sim.schedule_after(0, self._do_announce, LABEL_ANNOUNCE)

    def _do_announce(self) -> None:
        self._announce_pending = False
        if not self._running:
            return
        k = self.highest_ready()
        if k > self.rpcn and k > self._announced:
            self._send_ready(k)

    def _send_ready(self, k: int) -> None:
        self._announced = k
        self._last_send = self.sim.now
        self.c_announces.add()
        trace = self.trace
        if trace is not None:
            trace.emit(self.sim.now, "validate.announce", self.node_id,
                       k=k, rpcn=self.rpcn)
        self.network.send(
            Message(MessageKind.VALIDATE_READY, src=self.node_id,
                    dst=self.controller_node, ack_count=k)
        )
        self._arm_resync()

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def _arm_detection_timer(self, target: int) -> None:
        if self._detect_armed_for >= target:
            return
        self._detect_armed_for = target
        when = self.edge_time(target) + self.detection_latency
        self.sim.schedule(
            max(when, self.sim.now), self._on_detect_timer, LABEL_DETECT
        )

    def _on_detect_timer(self) -> None:
        self._detect_armed_for = 0
        self.announce_if_ready()

    def _arm_resync(self) -> None:
        """Dropped-coordination-message insurance (paper robustness): while
        an announcement is outstanding, re-send it on a slow timer.  The
        timer is armed at send time in *both* scheduling modes, so a run
        with lost coordination messages still replays identically."""
        if self._resync_armed:
            return
        self._resync_armed = True
        self.sim.schedule_after(
            self.config.validation_resync_interval, self._on_resync,
            LABEL_RESYNC,
        )

    def _on_resync(self) -> None:
        self._resync_armed = False
        if not self._running or self._announced <= self.rpcn:
            return  # caught up (or silenced); dormant until the next send
        elapsed = self.sim.now - self._last_send
        if elapsed < self.config.validation_resync_interval:
            # A newer announcement reset the clock; wait out the rest.
            self._resync_armed = True
            self.sim.schedule_after(
                self.config.validation_resync_interval - elapsed,
                self._on_resync, LABEL_RESYNC,
            )
            return
        k = self.highest_ready()
        if k > self.rpcn:
            self._send_ready(k)

    # ------------------------------------------------------------------
    # Phase two: broadcasts and recovery
    # ------------------------------------------------------------------
    def on_rpcn_broadcast(self, rpcn: int) -> None:
        """The controllers advanced the recovery point."""
        if rpcn <= self.rpcn:
            return
        self.c_updates.add()
        lag = min(p.ccn for p in self.participants) - rpcn
        if lag > 0:
            self.c_lag.add(lag)
        trace = self.trace
        if trace is not None:
            trace.emit(self.sim.now, "rpcn.apply", self.node_id,
                       rpcn=rpcn, lag=lag)
        self.rpcn = rpcn
        for participant in self.participants:
            participant.on_rpcn(rpcn)

    def on_recovery(self, rpcn: int) -> None:
        """Recovery reset: the sign-off conversation starts over (the
        controllers forget our announcements), and the restored state —
        every checkpoint up to the current CCN now denotes the recovery
        point's state — is announced immediately, not at the next edge."""
        self._announced = 0
        self._last_send = None
        self.announce_if_ready()
