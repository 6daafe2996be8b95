"""One processor-memory node (paper Fig. 2).

A node bundles a processor core, a coherent cache hierarchy with its CLB,
a memory controller (home for an interleaved slice of the address space)
with its CLB, the node's validation agent, and optional I/O commit
structures.  ``deliver`` is the node's network-interface dispatch.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.checkpoint import ValidationAgent
from repro.config import SystemConfig
from repro.coherence.cache import CacheController
from repro.coherence.directory import MemoryController
from repro.core.clb import CheckpointLogBuffer
from repro.core.commit import InputLog, OutputCommitBuffer
from repro.interconnect.messages import Message, MessageKind
from repro.interconnect.network import Network
from repro.processor.core import Core
from repro.sim.kernel import Simulator
from repro.sim.stats import StatsRegistry

_HOME_KINDS = frozenset(
    {MessageKind.GETS, MessageKind.GETM, MessageKind.PUTM, MessageKind.PUTE,
     MessageKind.FINAL_ACK, MessageKind.COPYBACK}
)


class IoHooks:
    """Bridges core retirement to the output/input commit structures.

    Every ``output_period`` retired instructions the node emits an output
    event (think: a disk write) into the commit buffer; every
    ``input_period`` instructions it consumes an external input (logged
    for replay).  Periods of zero disable the respective stream.  The
    core's burst loop stops at :meth:`next_boundary` and calls
    :meth:`on_retire` for each retirement that reaches it.
    """

    def __init__(
        self,
        node_id: int,
        commit: OutputCommitBuffer,
        input_log: InputLog,
        external_rng: random.Random,
        *,
        output_period: int = 0,
        input_period: int = 0,
    ) -> None:
        self.node_id = node_id
        self.commit = commit
        self.input_log = input_log
        self.external_rng = external_rng
        self.output_period = output_period
        self.input_period = input_period

    def prune_below_position(self, position: int) -> None:
        """Garbage-collect input-log entries that can never replay again
        (their consumption positions precede every reachable recovery
        point)."""
        if self.input_period:
            self.input_log.prune_below(position // self.input_period)

    def next_boundary(self, position: int) -> int:
        """The first position above ``position`` at which a retirement
        emits an output or consumes an input."""
        boundary = 1 << 62
        for period in (self.output_period, self.input_period):
            if period:
                boundary = min(boundary, (position // period + 1) * period)
        return boundary

    def on_retire(self, core: Core, retired: int) -> None:
        pos = core.position
        prev = pos - retired
        if self.output_period:
            if pos // self.output_period > prev // self.output_period:
                key = pos // self.output_period
                payload = (self.node_id, key, tuple(core.registers))
                self.commit.emit(core.ccn, payload)
        if self.input_period:
            if pos // self.input_period > prev // self.input_period:
                key = pos // self.input_period
                # The produce function is genuinely external nondeterminism;
                # the log makes replay after recovery deterministic.
                value = self.input_log.consume(
                    key, lambda: self.external_rng.randint(0, 2**32)
                )
                core.registers[key % len(core.registers)] ^= value


class Node:
    """Processor + cache + memory-slice home + SafetyNet agents."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        config: SystemConfig,
        network: Network,
        stats: StatsRegistry,
        workload,
        home_of: Callable[[int], int],
        on_fault: Callable[[str], None],
        *,
        next_edge_time: Callable[[], int],
        edge_time_of: Callable[[int], int],
        detection_latency: int = 0,
        on_target_reached: Optional[Callable[[int], None]] = None,
        io_hooks_factory: Optional[Callable[["Node"], Optional[IoHooks]]] = None,
        on_validate_ready=None,
        protocol=None,
    ) -> None:
        self.node_id = node_id
        self.config = config
        self.on_validate_ready = on_validate_ready

        self.cache_clb = CheckpointLogBuffer(
            max(1, config.clb_entries), name=f"node{node_id}.cache_clb"
        )
        self.home_clb = CheckpointLogBuffer(
            max(1, config.clb_entries), name=f"node{node_id}.home_clb"
        )
        self.cache = CacheController(
            sim, node_id, config, network, self.cache_clb, stats, home_of,
            on_fault, protocol=protocol,
        )
        self.home = MemoryController(
            sim, node_id, config, network, self.home_clb, stats,
            on_fault=on_fault, protocol=protocol,
        )
        self.commit: Optional[OutputCommitBuffer] = None
        self.input_log: Optional[InputLog] = None
        io_hooks = None
        if io_hooks_factory is not None:
            self.commit = OutputCommitBuffer(node_id)
            self.input_log = InputLog(node_id)
            io_hooks = io_hooks_factory(self)
        self.core = Core(
            sim, node_id, config, self.cache, workload, stats,
            next_edge_time=next_edge_time,
            on_target_reached=on_target_reached,
            io_hooks=io_hooks,
        )
        participants = [self.cache, self.home, self.core]
        if self.commit is not None:
            participants.append(self.commit)
        self.validation = ValidationAgent(
            sim, node_id, config, network, participants,
            edge_time=edge_time_of,
            detection_latency=detection_latency,
            stats=stats,
        )

    # ------------------------------------------------------------------
    def on_edge(self, new_ccn: int) -> None:
        """Node-local checkpoint-clock edge: the validation agent steps
        every participant's CCN (the core shadow-copies its registers) and
        re-evaluates sign-off."""
        self.validation.on_edge(new_ccn)

    def deliver(self, msg: Message) -> None:
        """Network-interface dispatch for everything addressed to us."""
        kind = msg.kind
        if kind in _HOME_KINDS:
            self.home.handle_message(msg)
        elif kind == MessageKind.VALIDATE_READY:
            if self.on_validate_ready is None:
                raise RuntimeError(
                    f"node {self.node_id} is not a service-controller node"
                )
            self.on_validate_ready(msg.src, msg.ack_count)
        elif kind == MessageKind.RPCN_BROADCAST:
            self.validation.on_rpcn_broadcast(msg.ack_count)
        else:
            self.cache.handle_message(msg)
