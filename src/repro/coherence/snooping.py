"""SafetyNet on a broadcast snooping protocol (paper footnote 1, §2.3).

A MOSI snooping system over :class:`~repro.interconnect.ordered.OrderedBus`.
The interesting difference from the directory implementation is the
*logical time base*: here it is simply the global coherence-request count
(checkpoint every K requests).  Because the bus is totally ordered, every
component independently assigns every transaction to the same checkpoint
interval — no checkpoint clock, no skew condition, no FINAL_ACK/retag
machinery.  A transaction's point of atomicity is its request's position
in bus order.

This variant is prototype-fidelity: it shares the CLB and the logging
rules with the main implementation and demonstrates exact recovery, but
drives memory traffic directly rather than through the full
processor/workload stack (README "Coherence protocols & arbitration").
Each step the cache shares with the directory cache is stated once.  A
store hit and a GETM fill go through one ``_apply_store``, which logs
the pre-store state, so a silently upgraded block recovers as E.  Fills,
E-state counters and readiness use ``CoherenceProtocol.fill_state``,
``CoherenceProtocol.counter`` and
:func:`~repro.checkpoint.participant.transaction_closed`.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Tuple

from repro.checkpoint.participant import transaction_closed
from repro.coherence.protocol import CoherenceProtocol, resolve_protocol
from repro.coherence.state import CacheBlock, CacheState, ProtocolError
from repro.core.clb import CheckpointLogBuffer, needs_log
from repro.interconnect.messages import Message, MessageKind, reset_msg_ids
from repro.interconnect.ordered import OrderedBus
from repro.sim.deadlines import DeadlineTable
from repro.sim.kernel import Simulator
from repro.sim.stats import StatsRegistry

_txn_ids = itertools.count(1)


def reset_txn_ids() -> None:
    """Rewind the snooping txn-id stream (same determinism contract as
    the directory variant: ids appear in fault diagnostics, so a system
    must not inherit the process's prior counter state)."""
    global _txn_ids
    _txn_ids = itertools.count(1)


def interval_of(order_index: int, requests_per_checkpoint: int) -> int:
    """Logical time: checkpoint interval of the nth coherence request.

    Interval numbering starts at 1 (like CCNs in the directory variant).
    """
    return order_index // requests_per_checkpoint + 1


class SnoopingCache:
    """One node's cache on the snooping bus, with SafetyNet logging."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        bus: OrderedBus,
        clb: CheckpointLogBuffer,
        stats: StatsRegistry,
        *,
        requests_per_checkpoint: int = 64,
        request_timeout: Optional[int] = None,
        on_fault: Optional[Callable[[str], None]] = None,
        protocol: Optional[CoherenceProtocol] = None,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.bus = bus
        self.clb = clb
        self.stats = stats
        self.k = requests_per_checkpoint
        self.request_timeout = request_timeout
        self.on_fault = on_fault
        self.protocol = protocol if protocol is not None else resolve_protocol("mosi")
        self._silent = self.protocol.silent_upgrade_states
        # Same lazy-deadline machinery as the directory variant's caches:
        # one sweep event per controller instead of one event per request.
        self._timeout_table: Optional[DeadlineTable] = (
            DeadlineTable(sim, "snoop.timeout_sweep")
            if (request_timeout and on_fault is not None) else None
        )
        self.ccn = 1                    # derived from observed request count
        self.rpcn = 1
        self.blocks: Dict[int, CacheBlock] = {}
        self.pending: Dict[int, Tuple[Message, Optional[int], Callable]] = {}
        self._observed = 0
        # CheckpointParticipant readiness hook.
        self.on_readiness_changed: Optional[Callable[[], None]] = None
        bus.subscribe(self.on_snoop)
        bus.attach_data(node_id, self.on_data)
        ns = f"snoop{node_id}"
        self.c_transfers_logged = stats.counter(f"{ns}.transfers_logged")
        self.c_stores_logged = stats.counter(f"{ns}.stores_logged")
        self.c_timeouts = stats.counter(f"{ns}.timeouts")
        self.c_fill_e = self.protocol.counter(stats, f"{ns}.fill_e")
        self.c_silent_upgrade = self.protocol.counter(
            stats, f"{ns}.silent_upgrade")
        self.c_downgrade = self.protocol.counter(stats, f"{ns}.downgrade")

    # ------------------------------------------------------------------
    # SafetyNet primitives (same rules as the directory variant)
    # ------------------------------------------------------------------
    def _needs_log(self, block: CacheBlock) -> bool:
        return needs_log(block.cn, self.ccn)

    def _log_block(self, block: CacheBlock) -> None:
        self.clb.append(self.ccn, block.addr, (block.state, block.data, block.cn))
        block.cn = self.ccn + 1

    def _apply_store(self, block: CacheBlock, value: int) -> None:
        """The one store: write ``value`` into an M block, or an E block
        upgrading to M silently, logging the pre-store state first."""
        if self._needs_log(block):
            self._log_block(block)
            self.c_stores_logged.add()
        if block.state == CacheState.EXCLUSIVE:
            # Silent E->M upgrade: no bus transaction (mesi/moesi).
            self.c_silent_upgrade.add()
        block.state = CacheState.MODIFIED
        block.data = value

    # ------------------------------------------------------------------
    # CPU side
    # ------------------------------------------------------------------
    def load(self, addr: int, done: Callable[[int], None]) -> None:
        block = self.blocks.get(addr)
        if block is not None:
            self.sim.schedule_after(1, lambda: done(block.data), "snoop.hit")
            return
        self._request(MessageKind.GETS, addr, None, done)

    def store(self, addr: int, value: int, done: Callable[[], None]) -> None:
        block = self.blocks.get(addr)
        if block is not None and (block.state == CacheState.MODIFIED
                                  or block.state in self._silent):
            self._apply_store(block, value)
            self.sim.schedule_after(1, lambda: done(), "snoop.hit")
            return
        self._request(MessageKind.GETM, addr, value, lambda _=None: done())

    def _request(self, kind: MessageKind, addr: int, value: Optional[int],
                 done: Callable) -> None:
        if addr in self.pending:
            raise ProtocolError(f"snoop{self.node_id}: request already pending")
        msg = Message(kind, src=self.node_id, dst=-1, addr=addr,
                      txn_id=next(_txn_ids))
        order_index = self.bus.broadcast(msg)
        self.pending[addr] = (msg, value, done, interval_of(order_index, self.k))
        if self._timeout_table is not None:
            txn_id = msg.txn_id
            self._timeout_table.arm(
                addr,
                self.sim.now + self.request_timeout,
                lambda: self._check_timeout(addr, txn_id),
            )

    def _check_timeout(self, addr: int, txn_id: int) -> None:
        entry = self.pending.get(addr)
        if entry is None or entry[0].txn_id != txn_id:
            return  # answered (or recovery discarded it) since arming
        self.c_timeouts.add()
        self.on_fault(
            f"snoop{self.node_id} request timeout: {entry[0].kind.name} "
            f"{addr:#x} txn={txn_id}"
        )

    # ------------------------------------------------------------------
    # Bus side: every component sees every request, in the same order
    # ------------------------------------------------------------------
    def on_snoop(self, msg: Message, index: int) -> None:
        # Advance logical time first: the request belongs to this interval.
        # Monotonic (like on_edge): bus order is the primary time base, but
        # an external clock edge may already have moved the interval on.
        self._observed = index + 1
        interval = interval_of(index, self.k)
        if interval > self.ccn:
            self.ccn = interval
        if msg.kind not in (MessageKind.GETS, MessageKind.GETM):
            return
        block = self.blocks.get(msg.addr)
        if msg.src == self.node_id:
            return  # our own request; we act when data arrives
        if block is None:
            return
        if msg.kind == MessageKind.GETS:
            if block.is_owner():
                if self.protocol.copyback_on_read:
                    # No O state (mesi): serve the read, drop to S, and
                    # return ownership to memory.  Ownership moves at
                    # THIS point in bus order, so the log-on-transfer
                    # rule applies here exactly as it does for GETM.
                    if self._needs_log(block):
                        self._log_block(block)
                        self.c_transfers_logged.add()
                    self.c_downgrade.add()
                    block.state = CacheState.SHARED
                else:
                    # Serve the read; stay owner (M/E -> O).  Ownership
                    # does not move, so no transfer, no log.
                    if block.state == CacheState.EXCLUSIVE:
                        self.c_downgrade.add()
                    block.state = CacheState.OWNED
                self.bus.send_data(Message(
                    MessageKind.DATA_OWNER, src=self.node_id, dst=msg.src,
                    addr=msg.addr, txn_id=msg.txn_id, data=block.data,
                    cn=block.cn, grant="S",
                ))
        else:  # GETM
            if block.is_owner():
                # Ownership transfers at THIS point in bus order: the
                # transaction's point of atomicity.  Log-on-transfer rule.
                if self._needs_log(block):
                    self._log_block(block)
                    self.c_transfers_logged.add()
                self.bus.send_data(Message(
                    MessageKind.DATA_OWNER, src=self.node_id, dst=msg.src,
                    addr=msg.addr, txn_id=msg.txn_id, data=block.data,
                    cn=block.cn, grant="M",
                ))
            del self.blocks[msg.addr]  # owner and sharers invalidate

    def on_data(self, msg: Message) -> None:
        entry = self.pending.pop(msg.addr, None)
        if entry is None or entry[0].txn_id != msg.txn_id:
            return
        if self._timeout_table is not None:
            self._timeout_table.cancel(msg.addr)
        request, value, done, issue_interval = entry
        state = self.protocol.fill_state(msg.grant)
        if state == CacheState.EXCLUSIVE:
            self.c_fill_e.add()
        cn = msg.cn if (msg.cn is None or msg.cn > self.rpcn) else None
        block = CacheBlock(msg.addr, state, msg.data, cn)
        self.blocks[msg.addr] = block
        if request.kind == MessageKind.GETM:
            self._apply_store(block, value)
        done(msg.data)
        transaction_closed(self, issue_interval)

    # ------------------------------------------------------------------
    # Validation + recovery (CheckpointParticipant)
    # ------------------------------------------------------------------
    def on_edge(self, new_ccn: int) -> None:
        """External logical-clock hook.  The snooping time base is bus
        order (``on_snoop`` advances the CCN), so an edge only ever moves
        the interval forward — it never rewinds past an observed request."""
        if new_ccn > self.ccn:
            self.ccn = new_ccn

    def min_open_interval(self) -> Optional[int]:
        """Earliest interval with an incomplete request we issued — the
        same validation condition as the directory variant (a checkpoint
        k validates only once every request from intervals < k completed)."""
        intervals = [issue for (_m, _v, _d, issue) in self.pending.values()]
        return min(intervals) if intervals else None

    def on_rpcn(self, rpcn: int) -> None:
        if rpcn <= self.rpcn:
            return
        self.rpcn = rpcn
        self.clb.free_below(rpcn)
        for block in self.blocks.values():
            if block.cn is not None and block.cn <= rpcn:
                block.cn = None

    def recover_to(self, rpcn: int) -> int:
        self.pending.clear()
        if self._timeout_table is not None:
            self._timeout_table.clear()
        entries = self.clb.rollback(rpcn)
        for entry in entries:
            state, data, cn = entry.payload
            self.blocks[entry.addr] = CacheBlock(entry.addr, state, data, cn)
        for addr in [a for a, b in self.blocks.items()
                     if b.cn is not None and b.cn > rpcn]:
            del self.blocks[addr]
        for block in self.blocks.values():
            block.cn = None
        self.rpcn = rpcn
        return len(entries)

    def owned_state(self) -> Dict[int, Tuple[str, int]]:
        return {a: (b.state, b.data) for a, b in self.blocks.items()
                if b.is_owner()}


class SnoopingMemory:
    """The memory on the snooping bus: responds when no cache owns."""

    def __init__(
        self,
        sim: Simulator,
        bus: OrderedBus,
        caches: List[SnoopingCache],
        clb: CheckpointLogBuffer,
        *,
        requests_per_checkpoint: int = 64,
        protocol: Optional[CoherenceProtocol] = None,
    ) -> None:
        self.sim = sim
        self.bus = bus
        self.caches = caches
        self.clb = clb
        self.k = requests_per_checkpoint
        self.protocol = protocol if protocol is not None else resolve_protocol("mosi")
        self.ccn = 1
        self.rpcn = 1
        self.values: Dict[int, int] = {}
        self.block_cn: Dict[int, Optional[int]] = {}
        self.owner: Dict[int, Optional[int]] = {}
        # CheckpointParticipant readiness hook (never fired: the memory
        # answers synchronously in bus order and holds nothing open).
        self.on_readiness_changed: Optional[Callable[[], None]] = None
        bus.subscribe(self.on_snoop)

    def value_of(self, addr: int) -> int:
        return self.values.get(addr, 0)

    def on_edge(self, new_ccn: int) -> None:
        """External logical-clock hook (see :meth:`SnoopingCache.on_edge`)."""
        if new_ccn > self.ccn:
            self.ccn = new_ccn

    def min_open_interval(self) -> Optional[int]:
        return None

    def _log_change(self, addr: int, owner: Optional[int]) -> None:
        """Log-on-change: capture the pre-change (value, owner) pair once
        per interval, exactly like the caches' ``_log_block``."""
        cn = self.block_cn.get(addr)
        if needs_log(cn, self.ccn):
            self.clb.append(self.ccn, addr, (self.value_of(addr), owner, cn))
            self.block_cn[addr] = self.ccn + 1

    def on_snoop(self, msg: Message, index: int) -> None:
        interval = interval_of(index, self.k)
        if interval > self.ccn:   # monotonic, like on_edge
            self.ccn = interval
        if msg.kind not in (MessageKind.GETS, MessageKind.GETM):
            return
        addr = msg.addr
        owner = self.owner.get(addr)
        if msg.kind == MessageKind.GETM:
            # Log the ownership change (value is unchanged at memory).
            self._log_change(addr, owner)
            self.owner[addr] = msg.src
        elif owner is not None and owner != msg.src \
                and self.protocol.copyback_on_read:
            # mesi remote read: the owning cache (subscribed ahead of us,
            # so it has already acted on this same snoop) served the data
            # and dropped to S.  Ownership — and the current value —
            # return to memory at this point in bus order.
            self._log_change(addr, owner)
            ex = self.caches[owner].blocks.get(addr)
            if ex is not None:
                self.values[addr] = ex.data
            self.owner[addr] = None
            return  # the ex-owner responded; memory stays quiet
        if owner is None or owner == msg.src:
            # No cache owner (or upgrading owner re-requesting): memory is
            # the responder.
            grant = "M" if msg.kind == MessageKind.GETM else "S"
            if (msg.kind == MessageKind.GETS
                    and self.protocol.exclusive_clean_fill
                    and not any(addr in c.blocks for c in self.caches
                                if c.node_id != msg.src)):
                # Nobody holds a copy: grant E.  The holder may later
                # upgrade silently, so memory must treat the grant as an
                # ownership transfer now (logged like a GETM's).
                self._log_change(addr, owner)
                self.owner[addr] = msg.src
                grant = "E"
            self.bus.send_data(Message(
                MessageKind.DATA, src=-1, dst=msg.src, addr=addr,
                txn_id=msg.txn_id, data=self.value_of(addr),
                cn=self.block_cn.get(addr), grant=grant,
            ))

    def on_rpcn(self, rpcn: int) -> None:
        if rpcn <= self.rpcn:
            return
        self.rpcn = rpcn
        self.clb.free_below(rpcn)
        for addr in [a for a, cn in self.block_cn.items()
                     if cn is not None and cn <= rpcn]:
            del self.block_cn[addr]

    def recover_to(self, rpcn: int) -> int:
        entries = self.clb.rollback(rpcn)
        for entry in entries:
            value, owner, _cn = entry.payload
            self.values[entry.addr] = value
            self.owner[entry.addr] = owner
        self.block_cn.clear()
        self.rpcn = rpcn
        return len(entries)


#: Capacity of every CLB in a :class:`SnoopingSystem` (caches and memory).
SNOOP_CLB_ENTRIES = 4096


class SnoopingSystem:
    """A small SafetyNet-protected snooping multiprocessor (footnote 1)."""

    def __init__(self, num_caches: int = 4, *, requests_per_checkpoint: int = 64,
                 request_timeout: Optional[int] = None,
                 on_fault: Optional[Callable[[str], None]] = None,
                 protocol: str = "mosi") -> None:
        reset_txn_ids()
        reset_msg_ids()
        self.sim = Simulator()
        self.stats = StatsRegistry()
        self.bus = OrderedBus(self.sim, stats=self.stats)
        self.k = requests_per_checkpoint
        self.protocol = resolve_protocol(protocol)
        self.caches = [
            SnoopingCache(
                self.sim, i, self.bus,
                CheckpointLogBuffer(SNOOP_CLB_ENTRIES, name=f"snoop{i}.clb"),
                self.stats, requests_per_checkpoint=requests_per_checkpoint,
                request_timeout=request_timeout, on_fault=on_fault,
                protocol=self.protocol,
            )
            for i in range(num_caches)
        ]
        self.memory = SnoopingMemory(
            self.sim, self.bus, self.caches,
            CheckpointLogBuffer(SNOOP_CLB_ENTRIES, name="snoopmem.clb"),
            requests_per_checkpoint=requests_per_checkpoint,
            protocol=self.protocol,
        )

    # ------------------------------------------------------------------
    def current_interval(self) -> int:
        return interval_of(max(0, self.bus.requests_observed - 1), self.k)

    def validate_to(self, rpcn: int) -> None:
        """Advance the recovery point (two-phase coordination, condensed:
        asserts nothing is open below the new recovery point)."""
        for cache in self.caches:
            bound = cache.min_open_interval()
            if bound is not None and bound < rpcn:
                raise ProtocolError("cannot validate past an open transaction")
            cache.on_rpcn(rpcn)
        self.memory.on_rpcn(rpcn)

    def recover_to(self, rpcn: int) -> int:
        self.bus.drain()
        unrolled = self.memory.recover_to(rpcn)
        for cache in self.caches:
            unrolled += cache.recover_to(rpcn)
        return unrolled

    # ------------------------------------------------------------------
    def architected_value(self, addr: int) -> int:
        owners = [c for c in self.caches if addr in c.owned_state()]
        if len(owners) > 1:
            raise AssertionError(f"multiple owners for {addr:#x}")
        if owners:
            return owners[0].owned_state()[addr][1]
        return self.memory.value_of(addr)

    def check_invariants(self) -> None:
        seen: Dict[int, int] = {}
        for cache in self.caches:
            for addr in cache.owned_state():
                if addr in seen:
                    raise AssertionError(
                        f"{addr:#x} owned by {seen[addr]} and {cache.node_id}"
                    )
                seen[addr] = cache.node_id
        for cache in self.caches:
            for addr, block in cache.blocks.items():
                if block.state != CacheState.EXCLUSIVE:
                    continue
                for other in self.caches:
                    if other is not cache and addr in other.blocks:
                        raise AssertionError(
                            f"{addr:#x}: E at {cache.node_id} but "
                            f"{other.node_id} holds a copy")
                if block.data != self.memory.value_of(addr):
                    raise AssertionError(
                        f"{addr:#x}: E copy diverged from memory "
                        f"({block.data} vs {self.memory.value_of(addr)})")
