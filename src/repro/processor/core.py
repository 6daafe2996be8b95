"""In-order blocking processor core with SafetyNet register checkpoints.

Execution model (paper §4.1): one instruction per cycle given a perfect
memory system; memory operations block on cache misses; a store that must
log costs eight extra cycles; a register checkpoint costs 100 cycles at
each checkpoint-clock edge.

The core executes its workload positionally: ``position`` counts retired
instructions, and the op stream is a pure function of position, so
SafetyNet recovery is just "restore the register checkpoint (which
includes position) and re-execute".

Ops run in one burst loop (:meth:`Core._burst`) with the cache hit path
inlined; a miss leaves the loop and blocks the core until the cache's
transaction completes, and I/O commit hooks see each retirement that
crosses an output or input period boundary.  The loop reads packed ops
from a one-window buffer that the workload's ``ops_from`` fills along the
chain of positions the core retires through; since the stream is pure,
a buffer whose head is not the core's position (first start, recovery)
is simply rebuilt.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.coherence.cache import CacheController
from repro.coherence.state import CacheState
from repro.sim.kernel import Simulator
from repro.sim.stats import StatsRegistry
from repro.workloads.base import OP_ADDR_MASK, OP_GAP_SHIFT, OP_STORE_BIT

# How many ops one scheduler event may process before yielding (keeps
# event latency bounded; has no architectural meaning).
BURST_QUANTUM = 256

NUM_REGISTERS = 8


class Core:
    """One node's processor."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        config: SystemConfig,
        cache: CacheController,
        workload,
        stats: StatsRegistry,
        *,
        next_edge_time: Optional[Callable[[], int]] = None,
        on_target_reached: Optional[Callable[[int], None]] = None,
        io_hooks=None,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.config = config
        self.cache = cache
        self.workload = workload
        self.next_edge_time = next_edge_time or (lambda: 1 << 62)
        self.on_target_reached = on_target_reached
        self.io_hooks = io_hooks  # optional OutputCommit/InputLog bridge

        self.position = 0                    # retired instructions
        self.registers: List[int] = [0] * NUM_REGISTERS
        self.snapshots: Dict[int, Tuple[int, Tuple[int, ...]]] = {
            1: (0, tuple(self.registers))
        }
        self.ccn = 1
        self.rpcn = 1
        self.epoch = 0
        # CheckpointParticipant readiness hook (set by the ValidationAgent;
        # never fired: the core's outstanding work is the cache's MSHRs).
        self.on_readiness_changed: Optional[Callable[[], None]] = None

        self.target: Optional[int] = None
        self.done = False
        self.frozen = False                  # recovery in progress
        self.throttled = False               # too many outstanding checkpoints
        self._miss_outstanding = False
        self._stall_credit = 0               # pending stall cycles (reg ckpt)
        # One window of the op stream: (head, ops, k, ops_end) — ops[k] is
        # the op at position ``head``, and ``ops_end`` the chain position
        # after the last op.  A head of -1 matches no position.
        self._op_buf: Tuple[int, Sequence[int], int, int] = (-1, (), 0, 0)

        ns = f"node{node_id}.core"
        self.c_executed = stats.counter(f"{ns}.instructions_executed")
        self.c_reexecuted = stats.counter(f"{ns}.instructions_reexecuted")
        self.c_ckpt_stalls = stats.counter(f"{ns}.register_ckpt_stall_cycles")
        self.c_throttle_stalls = stats.counter(f"{ns}.outstanding_ckpt_stalls")
        self.c_store_stall_cycles = stats.counter(f"{ns}.clb_throttle_cycles")

    # ------------------------------------------------------------------
    # Run control
    # ------------------------------------------------------------------
    def start(self, target_instructions: int) -> None:
        """Begin executing until ``position`` reaches the target."""
        self.target = target_instructions
        self.done = self.position >= target_instructions
        if not self.done:
            self._schedule_burst(0)

    def _schedule_burst(self, delay: int) -> None:
        epoch = self.epoch
        self.sim.schedule_after(delay, lambda: self._burst(epoch), "core.burst")

    def _blocked(self) -> bool:
        return (
            self.target is None          # never started (recovery can resume
            or self.frozen               # a core that has no work assigned)
            or self.done
            or self.throttled
            or self._miss_outstanding
        )

    # ------------------------------------------------------------------
    # The burst loop: execute until a miss, an edge, or the quantum
    # ------------------------------------------------------------------
    def _burst(self, epoch: int) -> None:
        """Execute ops with the cache hit path inlined.

        Everything hot is a burst local: the op buffer, the
        cache's set dictionaries, the register file, and the
        position/counter deltas — flushed back in one step at every burst
        exit, so between kernel events all externally visible state
        (position, counters, bandwidth meters) is exactly what retiring
        one op at a time would have produced.

        I/O hooks see every retirement that crosses an output or input
        period boundary: the loop's exit test is ``position >= stop`` with
        ``stop = min(target, next boundary, ops_end)``, and at a crossing
        it writes ``position`` back and calls ``on_retire`` for the op
        that crossed.  ``ops_end`` is where the op buffer runs out: there
        the loop refills it from ``ops_from`` and goes on, so neither the
        hooks nor the buffer add per-op work.
        """
        if epoch != self.epoch or self._blocked():
            return
        if self._stall_credit:
            delay, self._stall_credit = self._stall_credit, 0
            self._schedule_burst(delay)
            return
        sim = self.sim
        t = sim.now
        edge = self.next_edge_time()
        cache = self.cache
        sets = cache._sets
        block_bits = cache._block_bits
        num_sets = cache._num_sets
        ccn = cache.ccn                      # stable within one event
        logging_on = cache.config.safetynet_enabled
        modified = CacheState.MODIFIED
        silent = cache._silent_upgrade       # E under mesi/moesi, else empty
        op_window = self.workload.ops_from
        nid = self.node_id
        store_tag = (nid + 1) << 44          # _store_value's node component
        registers = self.registers
        target = self.target
        position = self.position
        head, ops, k, ops_end = self._op_buf
        if head != position:
            ops, ops_end = op_window(nid, position, target)
            k = 0
        io = self.io_hooks
        boundary = io.next_boundary(position) if io is not None else target
        stop = min(target, boundary, ops_end)
        lru = cache._lru_tick
        gap = 0
        loads = 0
        stores = 0
        executed = 0

        def flush() -> None:
            self.position = position
            self._op_buf = (position, ops, k, ops_end)
            cache._lru_tick = lru
            if executed:
                self.c_executed.add(executed)
            if loads:
                cache.c_loads.add(loads)
            if stores:
                cache.c_stores.add(stores)
            if loads or stores:
                cache.bw.add("hits", (loads + stores) * cache.config.block_size)

        for _ in range(BURST_QUANTUM):
            if position >= stop:
                if io is not None and position >= boundary:
                    # The op just retired crossed an I/O period boundary.
                    self.position = position
                    io.on_retire(self, gap + 1)
                    boundary = io.next_boundary(position)
                if position >= target:
                    flush()
                    self._schedule_finish(t)
                    return
                if position >= ops_end:
                    ops, ops_end = op_window(nid, position, target)
                    k = 0
                stop = min(target, boundary, ops_end)
            p = ops[k]
            k += 1
            gap = p >> OP_GAP_SHIFT
            is_store = p & OP_STORE_BIT
            addr = p & OP_ADDR_MASK
            t_issue = t + gap + 1
            if t_issue > edge:
                # Stop at the checkpoint edge; the edge event (already
                # queued) fires first and applies the checkpoint stall.
                k -= 1                       # the op has not retired
                flush()
                self._schedule_burst(edge - sim.now)
                return
            bucket = sets.get((addr >> block_bits) % num_sets)
            block = bucket.get(addr) if bucket is not None else None
            if block is not None:
                lru += 1
                block.lru = lru
                if not is_store:
                    # Load hit: retire inline (the block in hand is what
                    # _retire's load_value() would re-find).
                    loads += 1
                    registers[(addr >> 6) & 7] ^= block.data + 1
                    position += gap + 1
                    executed += gap + 1
                    t = t_issue
                    continue
                if block.state == modified:
                    value = store_tag ^ position
                    # repro.core.clb.needs_log, inlined: this test runs
                    # on every store hit.
                    if not (logging_on
                            and (block.cn is None or ccn >= block.cn)):
                        # Store hit, already logged this interval.
                        block.data = value
                        stores += 1
                        registers[position & 7] ^= value
                        position += gap + 1
                        executed += gap + 1
                        t = t_issue
                        continue
                    status, extra = cache._store_hit_logged(block, value)
                    if status == "hit":
                        registers[position & 7] ^= value
                        position += gap + 1
                        executed += gap + 1
                        t = t_issue + extra
                        continue
                    # CLB full: the paper's CPU-throttling backpressure.
                    k -= 1
                    flush()
                    self.c_store_stall_cycles.add(extra)
                    self._schedule_burst((t_issue - sim.now) + extra)
                    return
                if block.state in silent:
                    # Silent E→M upgrade: a store hit with no network
                    # transaction (the same _store_hit_logged call, and
                    # counter, as fast_access's E branch).
                    value = store_tag ^ position
                    status, extra = cache._store_hit_logged(block, value)
                    if status == "hit":
                        cache.c_silent_upgrade.add()
                        registers[position & 7] ^= value
                        position += gap + 1
                        executed += gap + 1
                        t = t_issue + extra
                        continue
                    k -= 1
                    flush()
                    self.c_store_stall_cycles.add(extra)
                    self._schedule_burst((t_issue - sim.now) + extra)
                    return
            # Miss (including stores to O/S blocks, which need upgrades).
            # It consumes its op: once the miss retires it, the core's
            # position is the buffer's head again.
            flush()
            self._op_buf = (position + gap + 1, ops, k, ops_end)
            self._start_miss_event(addr, bool(is_store), gap, t_issue)
            return
        # Quantum exhausted: yield to other events, resume at time t.
        flush()
        if io is not None and position >= boundary:
            io.on_retire(self, gap + 1)
        self._schedule_burst(max(0, t - sim.now))

    def _start_miss_event(self, addr: int, is_store: bool, gap: int,
                          t_issue: int) -> None:
        self._miss_outstanding = True
        issue_delay = t_issue - self.sim.now
        value = self._store_value() if is_store else None
        core_epoch = self.epoch
        self.sim.schedule_after(
            issue_delay,
            lambda a=addr, s=is_store, v=value, g=gap: self._issue_miss(
                a, s, v, g, core_epoch
            ),
            "core.issue_miss",
        )

    def _issue_miss(self, addr: int, is_store: bool, value: Optional[int],
                    gap: int, epoch: int) -> None:
        if epoch != self.epoch or self.frozen:
            self._miss_outstanding = False
            return
        # ``gap`` is threaded through from the burst loop: recomputing
        # workload.op here just to recover it would hash the op twice.
        self.cache.start_miss(
            addr, is_store, value,
            lambda g=gap, s=is_store, a=addr: self._miss_done(g, s, a, epoch),
        )

    def _miss_done(self, gap: int, is_store: bool, addr: int, epoch: int) -> None:
        if epoch != self.epoch:
            return
        self._miss_outstanding = False
        self._retire(gap, is_store, addr)
        if not self._blocked():
            self._schedule_burst(0)

    # ------------------------------------------------------------------
    # Retirement and architected register state
    # ------------------------------------------------------------------
    def _store_value(self) -> int:
        """Deterministic store data: encodes (node, position) so tests can
        verify exactly which write a recovered value came from."""
        return ((self.node_id + 1) << 44) ^ self.position

    def _retire(self, gap: int, is_store: bool, addr: int) -> None:
        retired = gap + 1
        if is_store:
            self.registers[self.position % NUM_REGISTERS] ^= self._store_value()
        else:
            data = self.cache.load_value(addr)
            if data is not None:
                self.registers[(addr >> 6) % NUM_REGISTERS] ^= data + 1
        self.position += retired
        self.c_executed.add(retired)
        if self.io_hooks is not None:
            self.io_hooks.on_retire(self, retired)

    def _schedule_finish(self, t: int) -> None:
        """Completion is reported at the accumulated cycle time ``t``, not
        at the burst-event time (bursts batch many 1-cycle instructions)."""
        epoch = self.epoch
        self.sim.schedule_after(
            max(0, t - self.sim.now),
            lambda: epoch == self.epoch and not self.done and self._finish(),
            "core.finish",
        )

    def _finish(self) -> None:
        self.done = True
        if self.on_target_reached is not None:
            self.on_target_reached(self.node_id)

    # ------------------------------------------------------------------
    # SafetyNet checkpoint lifecycle (CheckpointParticipant)
    # ------------------------------------------------------------------
    def min_open_interval(self) -> Optional[int]:
        """The core never holds a transaction open itself: a blocked miss
        is an open MSHR at the cache, which reports it."""
        return None

    def on_edge(self, new_ccn: int) -> None:
        """Checkpoint-clock edge: shadow-copy the registers (and position,
        our program counter equivalent), pay the checkpoint latency, and
        stall if too many checkpoints await validation."""
        self.ccn = new_ccn
        self.snapshots[new_ccn] = (self.position, tuple(self.registers))
        self._stall_credit += self.config.register_checkpoint_cycles
        self.c_ckpt_stalls.add(self.config.register_checkpoint_cycles)
        if new_ccn - self.rpcn > self.config.outstanding_checkpoints:
            if not self.throttled:
                self.throttled = True
                self.c_throttle_stalls.add()

    def on_rpcn(self, rpcn: int) -> None:
        if rpcn <= self.rpcn:
            return
        self.rpcn = rpcn
        for k in [k for k in self.snapshots if k < rpcn]:
            del self.snapshots[k]
        if self.io_hooks is not None and rpcn in self.snapshots:
            # No recovery can rewind below the recovery point's position:
            # input-log entries before it can never replay again.
            self.io_hooks.prune_below_position(self.snapshots[rpcn][0])
        if self.throttled and self.ccn - rpcn <= self.config.outstanding_checkpoints:
            self.throttled = False
            if not self._blocked():
                self._schedule_burst(0)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def freeze(self) -> None:
        self.frozen = True

    def recover_to(self, rpcn: int) -> int:
        """Restore the register checkpoint; returns lost (re-executed) work."""
        self.epoch += 1
        position, registers = self.snapshots[rpcn]
        lost = self.position - position
        if lost > 0:
            self.c_reexecuted.add(lost)
        self.position = position
        self.registers = list(registers)
        # Checkpoint numbers between the recovery point and the current
        # clock edge now all denote the restored state (their original
        # execution was discarded; re-execution happens in later intervals).
        # Hardware re-latches the shadow registers; we re-seed snapshots.
        self.snapshots = {
            k: (position, tuple(registers)) for k in range(rpcn, self.ccn + 1)
        }
        self._miss_outstanding = False
        self._stall_credit = 0
        self.throttled = False
        self.done = self.target is not None and self.position >= self.target
        return max(0, lost)

    def resume(self) -> None:
        """Restart after recovery (the service controllers' restart phase)."""
        self.frozen = False
        if not self._blocked():
            self._schedule_burst(0)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def architected_state(self) -> Tuple[int, Tuple[int, ...]]:
        return (self.position, tuple(self.registers))
