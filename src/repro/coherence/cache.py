"""Cache controller with SafetyNet support.

Models one node's coherent cache hierarchy (the paper's L1+L2, merged into
one coherent level with the L2's size and associativity; the L1 parameters
appear only in the Table 2 listing) plus the SafetyNet hooks:

* per-block checkpoint numbers (CN) and the once-per-interval logging rule
  (:func:`repro.core.clb.needs_log`) for store overwrites and ownership
  transfers (paper §3.3, Fig. 4);
* a Checkpoint Log Buffer written on the first update-action per interval;
* CPU throttling when a store would log into a full CLB, and stalling of
  forwarded requests that would log into a full CLB (backpressure instead
  of overflow — CLBs are sized for performance, not correctness);
* local log rollback + invalidation of unvalidated blocks on recovery.

The CPU side has two entries: hits resolve synchronously (the common
case the paper stresses has zero added latency) and :meth:`start_miss`
runs the message protocol.  Every store that logs or upgrades E→M
silently goes through :meth:`_apply_store`, which logs the pre-store
state; the core's burst loop (``processor/core.py``) inlines only the
no-log store hit on an M block.  :meth:`fast_access` is the hit path as
one call, the single-access entry the directed protocol tests drive.
A forwarded request gets its one DATA_OWNER reply from :meth:`_on_fwd`.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Tuple

from repro.checkpoint.participant import transaction_closed
from repro.config import SystemConfig
from repro.coherence.protocol import CoherenceProtocol, resolve_protocol
from repro.coherence.state import (CacheBlock, CacheState, ProtocolError,
                                   schedule_in_epoch)
from repro.core.clb import CheckpointLogBuffer, needs_log
from repro.interconnect.messages import Message, MessageKind
from repro.interconnect.network import Network
from repro.sim.deadlines import DeadlineTable
from repro.sim.kernel import Simulator
from repro.sim.stats import StatsRegistry

DoneFn = Callable[[], None]
FaultFn = Callable[[str], None]

_txn_counter = itertools.count(1)


def reset_txn_ids() -> None:
    """Rewind the process-global transaction-id stream (see
    ``messages.reset_msg_ids`` — same determinism contract: txn ids
    appear in timeout/livelock crash strings, so runs must not inherit
    the process's prior counter state)."""
    global _txn_counter
    _txn_counter = itertools.count(1)


class Mshr:
    """One outstanding transaction (transient coherence state)."""

    __slots__ = (
        "addr",
        "kind",            # "GETS" | "GETM" | "UPGRADE" | "PUTM" | "PUTE"
        "is_store",
        "value",
        "txn_id",
        "start_interval",  # CCN when the transaction was first issued
        "started_at",      # cycle of last (re)issue, for timeout accounting
        "data_received",
        "grant",
        "data",
        "data_cn",
        "acks_needed",     # None until ACK_COUNT/DATA tells us
        "acks_received",
        "done",
        "retries",
    )

    def __init__(self, addr: int, kind: str, is_store: bool, value: Optional[int],
                 txn_id: int, interval: int, now: int, done: Optional[DoneFn]) -> None:
        self.addr = addr
        self.kind = kind
        self.is_store = is_store
        self.value = value
        self.txn_id = txn_id
        self.start_interval = interval
        self.started_at = now
        self.data_received = False
        self.grant: Optional[str] = None
        self.data: Optional[int] = None
        self.data_cn: Optional[int] = None
        self.acks_needed: Optional[int] = None
        self.acks_received = 0
        self.done = done
        self.retries = 0

    def satisfied(self) -> bool:
        if self.kind in ("PUTM", "PUTE"):
            return False  # closed by WB_ACK/WB_STALE directly
        if self.acks_needed is None:
            return False
        if self.acks_received < self.acks_needed:
            return False
        if self.kind == "UPGRADE" and not self.data_received:
            # Upgrade completes on acks alone unless it was demoted to a
            # full GETM by a racing FWD (then data must arrive).
            return True
        return self.data_received


class CacheController:
    """One node's coherent cache + SafetyNet logging."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        config: SystemConfig,
        network: Network,
        clb: CheckpointLogBuffer,
        stats: StatsRegistry,
        home_of: Callable[[int], int],
        on_fault: FaultFn,
        protocol: Optional[CoherenceProtocol] = None,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.config = config
        self.network = network
        self.clb = clb
        self.stats = stats
        self.home_of = home_of
        self.on_fault = on_fault
        self.protocol = (protocol if protocol is not None
                         else resolve_protocol(config.protocol))
        # Hot-path alias (read per store in the core's burst loop).
        self._silent_upgrade = self.protocol.silent_upgrade_states

        self.ccn = 1
        self.rpcn = 1
        self.epoch = 0  # bumped on recovery; stale closures no-op
        # CheckpointParticipant readiness hook (set by the ValidationAgent).
        self.on_readiness_changed: Optional[Callable[[], None]] = None

        self._num_sets = max(1, config.cache_sets)
        self._assoc = config.l2_assoc
        self._block_bits = config.block_size.bit_length() - 1
        # The core's burst loop (processor/core.py) reads _block_bits,
        # _num_sets and _sets directly.
        self._sets: Dict[int, Dict[int, CacheBlock]] = {}
        self._lru_tick = 0
        # One sweep event instead of one heap event per request timeout
        # (see repro.sim.deadlines).
        self._timeout_table = DeadlineTable(sim, "cache.timeout_sweep")

        self.mshrs: Dict[int, Mshr] = {}
        self.wb_buffer: Dict[int, CacheBlock] = {}
        self.wb_txns: Dict[int, Mshr] = {}      # addr -> PUTM mshr
        self._stalled_fwds: List[Message] = []

        ns = f"node{node_id}.cache"
        self.c_loads = stats.counter(f"{ns}.loads")
        self.c_stores = stats.counter(f"{ns}.stores")
        self.c_stores_logged = stats.counter(f"{ns}.stores_logged")
        self.c_store_throttles = stats.counter(f"{ns}.store_throttles")
        self.c_misses = stats.counter(f"{ns}.misses")
        self.c_upgrades = stats.counter(f"{ns}.upgrades")
        self.c_fills = stats.counter(f"{ns}.fills")
        self.c_evictions = stats.counter(f"{ns}.evictions")
        self.c_writebacks = stats.counter(f"{ns}.writebacks")
        self.c_transfers_served = stats.counter(f"{ns}.transfers_served")
        self.c_transfers_logged = stats.counter(f"{ns}.transfers_logged")
        self.c_fwd_stalls = stats.counter(f"{ns}.fwd_clb_stalls")
        self.c_nacks = stats.counter(f"{ns}.nacks_received")
        self.c_timeouts = stats.counter(f"{ns}.timeouts")
        self.c_recovery_overflow = stats.counter(f"{ns}.recovery_set_overflow")
        self.bw = stats.meter(f"{ns}.bw")
        coh = f"node{node_id}.coh"
        self.c_fill_e = self.protocol.counter(stats, f"{coh}.fill_e")
        self.c_silent_upgrade = self.protocol.counter(
            stats, f"{coh}.silent_upgrade")
        self.c_clean_evict = self.protocol.counter(stats, f"{coh}.clean_evict")
        self.c_downgrade = self.protocol.counter(stats, f"{coh}.downgrade")

    # ------------------------------------------------------------------
    # Cache array helpers
    # ------------------------------------------------------------------
    def _set_index(self, addr: int) -> int:
        return (addr >> self._block_bits) % self._num_sets

    def _set_of(self, addr: int) -> Dict[int, CacheBlock]:
        idx = self._set_index(addr)
        bucket = self._sets.get(idx)
        if bucket is None:
            bucket = {}
            self._sets[idx] = bucket
        return bucket

    def lookup(self, addr: int) -> Optional[CacheBlock]:
        return self._set_of(addr).get(addr)

    def _touch(self, block: CacheBlock) -> None:
        self._lru_tick += 1
        block.lru = self._lru_tick

    def resident_blocks(self) -> List[CacheBlock]:
        out: List[CacheBlock] = []
        for bucket in self._sets.values():
            out.extend(bucket.values())
        return out

    # ------------------------------------------------------------------
    # SafetyNet logging primitives
    # ------------------------------------------------------------------
    def _needs_log(self, block: CacheBlock) -> bool:
        return self.config.safetynet_enabled and needs_log(block.cn, self.ccn)

    def _log_block(self, block: CacheBlock) -> None:
        self.clb.append(self.ccn, block.addr, (block.state, block.data, block.cn))
        block.cn = self.ccn + 1
        self.bw.add("logging", self.config.block_size)

    def _apply_store(self, block: CacheBlock, value: int) -> Optional[int]:
        """The one store: write ``value`` into an M block, an E block
        upgrading to M silently, or an O block whose upgrade the home
        granted.  Returns the extra cycles (the log penalty, or 0), or
        None when the store must log and the CLB is full; then nothing
        changes and the caller throttles (paper §3.3).  The log records
        the pre-store state, E and O included."""
        extra = 0
        if self._needs_log(block):
            if self.clb.is_full():
                self.c_store_throttles.add()
                return None
            self._log_block(block)
            self.c_stores_logged.add()
            extra = self.config.store_log_penalty
        if block.state == CacheState.EXCLUSIVE:
            self.c_silent_upgrade.add()
        self.c_stores.add()
        self.bw.add("hits", self.config.block_size)
        block.data = value
        block.state = CacheState.MODIFIED
        return extra

    def _transfer_out(self, block: CacheBlock) -> Tuple[bool, Optional[int]]:
        """Run the ownership-transfer logging rule (Wu et al. insight: a
        transfer is just like a write).  Returns (ok, cn_to_send); ok is
        False when logging was needed but the CLB is full."""
        if self._needs_log(block):
            if self.clb.is_full():
                return (False, None)
            self._log_block(block)
            self.c_transfers_logged.add()
        self.c_transfers_served.add()
        self.bw.add("coherence", self.config.block_size)
        return (True, block.cn)

    # ------------------------------------------------------------------
    # CPU interface
    # ------------------------------------------------------------------
    def fast_access(self, addr: int, is_store: bool, value: int) -> Tuple[str, int]:
        """Resolve a CPU access if it is a hit.

        Returns ("hit", extra_cycles), ("throttle", retry_delay) when a
        store must wait for CLB space, or ("miss", 0).
        Loads hit in any valid state; stores hit only in M — plus the
        protocol's silent-upgrade states (E under mesi/moesi: the store
        upgrades E→M with no network transaction).
        """
        block = self.lookup(addr)
        if block is None:
            return ("miss", 0)
        self._touch(block)
        if not is_store:
            self.c_loads.add()
            self.bw.add("hits", self.config.block_size)
            return ("hit", 0)
        if (block.state != CacheState.MODIFIED
                and block.state not in self._silent_upgrade):
            return ("miss", 0)
        extra = self._apply_store(block, value)
        if extra is None:
            return ("throttle", self.config.store_throttle_delay)
        return ("hit", extra)

    def load_value(self, addr: int) -> Optional[int]:
        block = self.lookup(addr)
        return block.data if block is not None else None

    def start_miss(self, addr: int, is_store: bool, value: Optional[int], done: DoneFn) -> None:
        """Begin a coherence transaction for a CPU miss."""
        if addr in self.mshrs:
            raise ProtocolError(f"node{self.node_id}: duplicate miss for {addr:#x}")
        block = self.lookup(addr)
        if is_store and block is not None and block.state == CacheState.OWNED:
            kind = "UPGRADE"
            self.c_upgrades.add()
        elif is_store:
            kind = "GETM"
        else:
            kind = "GETS"
        self.c_misses.add()
        txn_id = next(_txn_counter)
        mshr = Mshr(addr, kind, is_store, value, txn_id, self.ccn, self.sim.now, done)
        self.mshrs[addr] = mshr
        self._send_request(mshr)

    def _send_request(self, mshr: Mshr) -> None:
        kind = MessageKind.GETM if mshr.kind in ("GETM", "UPGRADE") else MessageKind.GETS
        self.network.send(
            Message(kind, src=self.node_id, dst=self.home_of(mshr.addr),
                    addr=mshr.addr, txn_id=mshr.txn_id)
        )
        self._arm_timeout(mshr)

    def _arm_timeout(self, mshr: Mshr) -> None:
        mshr.started_at = self.sim.now
        epoch = self.epoch
        issue = mshr.started_at
        # A dict store keyed per transaction; a re-issue (NACK retry)
        # replaces the deadline in place.
        self._timeout_table.arm(
            mshr.txn_id,
            issue + self.config.request_timeout,
            lambda: self._check_timeout(mshr, issue, epoch),
        )

    def _check_timeout(self, mshr: Mshr, issue_cycle: int, epoch: int) -> None:
        if epoch != self.epoch:
            return
        current = self.mshrs.get(mshr.addr) or self.wb_txns.get(mshr.addr)
        if current is not mshr or mshr.started_at != issue_cycle:
            return  # completed or re-issued since
        self.c_timeouts.add()
        self.on_fault(
            f"node{self.node_id} request timeout: {mshr.kind} {mshr.addr:#x} "
            f"txn={mshr.txn_id}"
        )

    # ------------------------------------------------------------------
    # Fills and evictions
    # ------------------------------------------------------------------
    def _make_room(self, addr: int) -> bool:
        """Ensure the set for ``addr`` has a free way.  May start a
        writeback.  Returns False if eviction is blocked (retry later)."""
        bucket = self._set_of(addr)
        if addr in bucket or len(bucket) < self._assoc:
            return True
        victim = self._choose_victim(bucket)
        if victim is None:
            return False
        self.c_evictions.add()
        if victim.is_owner():
            return self._start_writeback(victim, bucket)
        del bucket[victim.addr]  # silent S drop (never the only copy)
        return True

    def _choose_victim(self, bucket: Dict[int, CacheBlock]) -> Optional[CacheBlock]:
        candidates = [
            b for b in bucket.values()
            if b.addr not in self.mshrs and b.addr not in self.wb_buffer
        ]
        if not candidates:
            return None
        shared = [b for b in candidates if b.state == CacheState.SHARED]
        if shared:
            return min(shared, key=lambda b: b.lru)
        no_log = [b for b in candidates if not self._needs_log(b)]
        if no_log:
            return min(no_log, key=lambda b: b.lru)
        if self.clb.is_full():
            return None  # only loggable owners left and no CLB space
        return min(candidates, key=lambda b: b.lru)

    def _start_writeback(self, victim: CacheBlock, bucket: Dict[int, CacheBlock]) -> bool:
        # A clean-exclusive victim returns ownership without the data
        # payload: PUTE is control-sized, and the home's memory copy is
        # already current.  The transfer-logging rule still applies (the
        # home's undo record restores owner=this-node, so the cache must
        # be able to restore the block on recovery).
        clean = victim.state == CacheState.EXCLUSIVE
        ok, out_cn = self._transfer_out(victim)
        if not ok:
            return False  # CLB full; fill will retry
        del bucket[victim.addr]
        self.wb_buffer[victim.addr] = victim
        txn_id = next(_txn_counter)
        mshr = Mshr(victim.addr, "PUTE" if clean else "PUTM", False, None,
                    txn_id, self.ccn, self.sim.now, None)
        self.wb_txns[victim.addr] = mshr
        (self.c_clean_evict if clean else self.c_writebacks).add()
        self.network.send(
            Message(MessageKind.PUTE if clean else MessageKind.PUTM,
                    src=self.node_id, dst=self.home_of(victim.addr),
                    addr=victim.addr, txn_id=txn_id, cn=out_cn,
                    data=None if clean else victim.data)
        )
        self._arm_timeout(mshr)
        return True

    def _install(self, addr: int, state: str, data: int, cn: Optional[int]) -> Optional[CacheBlock]:
        """Place a filled block; returns None if no room yet (retry)."""
        if not self._make_room(addr):
            return None
        bucket = self._set_of(addr)
        block = bucket.get(addr)
        if block is None:
            block = CacheBlock(addr, state, data, self._normalize_cn(cn))
            bucket[addr] = block
        else:
            block.state = state
            block.data = data
            block.cn = self._normalize_cn(cn)
        self._touch(block)
        self.c_fills.add()
        self.bw.add("fills", self.config.block_size)
        return block

    def _normalize_cn(self, cn: Optional[int]) -> Optional[int]:
        """CNs at or below the recovery point mean 'validated': null them."""
        if cn is not None and cn <= self.rpcn:
            return None
        return cn

    # ------------------------------------------------------------------
    # Network message handling
    # ------------------------------------------------------------------
    def routes(self) -> Dict[MessageKind, Callable[[Message], None]]:
        """The message kinds the cache serves, each with its handler."""
        return {
            MessageKind.DATA: self._on_data,
            MessageKind.DATA_OWNER: self._on_data,
            MessageKind.ACK_COUNT: self._on_ack_count,
            MessageKind.INV_ACK: self._on_inv_ack,
            MessageKind.INV: self._on_inv,
            MessageKind.FWD_GETS: self._on_fwd,
            MessageKind.FWD_GETM: self._on_fwd,
            MessageKind.WB_ACK: self._on_wb_ack,
            MessageKind.WB_STALE: self._on_wb_ack,
            MessageKind.NACK: self._on_nack,
        }

    # -- responses to our own requests ----------------------------------
    def _on_data(self, msg: Message) -> None:
        mshr = self.mshrs.get(msg.addr)
        if mshr is None or mshr.txn_id != msg.txn_id:
            return  # stale response from a pre-recovery epoch
        mshr.data_received = True
        mshr.grant = msg.grant
        mshr.data = msg.data
        mshr.data_cn = msg.cn
        if msg.grant == "M":
            if mshr.acks_needed is None:
                mshr.acks_needed = msg.ack_count
        else:
            mshr.acks_needed = 0
        self._maybe_complete(mshr)

    def _on_ack_count(self, msg: Message) -> None:
        mshr = self.mshrs.get(msg.addr)
        if mshr is None or mshr.txn_id != msg.txn_id:
            return
        mshr.acks_needed = msg.ack_count
        self._maybe_complete(mshr)

    def _on_inv_ack(self, msg: Message) -> None:
        mshr = self.mshrs.get(msg.addr)
        if mshr is None or mshr.txn_id != msg.txn_id:
            return
        mshr.acks_received += 1
        self._maybe_complete(mshr)

    def _maybe_complete(self, mshr: Mshr) -> None:
        if not mshr.satisfied():
            return
        if mshr.data_received:
            block = self._install(mshr.addr,
                                  self.protocol.fill_state(mshr.grant),
                                  mshr.data, mshr.data_cn)
            if block is None:
                # No way free (eviction blocked on CLB space); retry soon.
                schedule_in_epoch(
                    self, self.config.store_throttle_delay,
                    lambda: self._maybe_complete(mshr), "cache.fill_retry",
                )
                return
            if mshr.grant == "E":
                self.c_fill_e.add()
        else:
            # Pure upgrade: we already own the block in O (the store
            # below logs it as O and makes it M).
            block = self.lookup(mshr.addr)
            if block is None:
                raise ProtocolError(
                    f"node{self.node_id}: upgrade completed but block "
                    f"{mshr.addr:#x} vanished"
                )
        if mshr.is_store:
            if self._apply_store(block, mshr.value) is None:
                schedule_in_epoch(
                    self, self.config.store_throttle_delay,
                    lambda: self._maybe_complete(mshr), "cache.store_retry",
                )
                return
        else:
            self.c_loads.add()
            self.bw.add("hits", self.config.block_size)
        self._finish_txn(mshr)

    def _finish_txn(self, mshr: Mshr) -> None:
        self._timeout_table.cancel(mshr.txn_id)
        final_cn = mshr.data_cn if mshr.grant == "M" else None
        self.network.send(
            Message(MessageKind.FINAL_ACK, src=self.node_id,
                    dst=self.home_of(mshr.addr), addr=mshr.addr,
                    txn_id=mshr.txn_id, cn=final_cn)
        )
        del self.mshrs[mshr.addr]
        if mshr.done is not None:
            mshr.done()
        transaction_closed(self, mshr.start_interval)

    def _on_nack(self, msg: Message) -> None:
        mshr = self.mshrs.get(msg.addr)
        if mshr is None or mshr.txn_id != msg.txn_id:
            return
        self.c_nacks.add()
        mshr.retries += 1
        schedule_in_epoch(
            self, self.config.nack_retry_delay,
            lambda: self._retry_request(mshr), "cache.nack_retry",
        )

    def _retry_request(self, mshr: Mshr) -> None:
        if self.mshrs.get(mshr.addr) is not mshr:
            return
        # Re-classify: an UPGRADE may have lost its O copy to a racing FWD.
        if mshr.kind == "UPGRADE":
            block = self.lookup(mshr.addr)
            if block is None or not block.is_owner():
                mshr.kind = "GETM"
        self._send_request(mshr)

    # -- requests from other components ----------------------------------
    def _on_inv(self, msg: Message) -> None:
        block = self.lookup(msg.addr)
        if block is not None:
            if block.is_owner():
                raise ProtocolError(
                    f"node{self.node_id}: INV hit owner block {block}"
                )
            del self._set_of(msg.addr)[msg.addr]
        requestor = msg.payload["requestor"]
        self.network.send(
            Message(MessageKind.INV_ACK, src=self.node_id, dst=requestor,
                    addr=msg.addr, txn_id=msg.txn_id)
        )

    def _on_fwd(self, msg: Message) -> None:
        block = self.lookup(msg.addr) or self.wb_buffer.get(msg.addr)
        if block is None or not block.is_owner():
            raise ProtocolError(
                f"node{self.node_id}: forwarded {msg} but not owner ({block})"
            )
        getm = msg.kind is MessageKind.FWD_GETM
        # Ownership leaves on a read-exclusive, and on a read under mesi:
        # with no O state the owner cannot keep serving the block, so it
        # keeps a shared copy and returns data + CN home (COPYBACK; the
        # home holds the transaction open until both this and the
        # requestor's FINAL_ACK arrive).  Leaving is a transfer, logged.
        leaves = getm or self.protocol.copyback_on_read
        if leaves:
            ok, cn = self._transfer_out(block)
            if not ok:
                # CLB full: stall the forward until validation frees space
                # (deadlock-free: earlier checkpoints can still validate,
                # and the watchdog recovery is the backstop).
                self.c_fwd_stalls.add()
                self._stalled_fwds.append(msg)
                return
        else:
            # Read: the owner keeps ownership (M/E -> O), no log.
            self.c_transfers_served.add()
            self.bw.add("coherence", self.config.block_size)
            cn = block.cn
        self.network.send(
            Message(MessageKind.DATA_OWNER, src=self.node_id,
                    dst=msg.payload["requestor"], addr=msg.addr,
                    txn_id=msg.txn_id, data=block.data, cn=cn,
                    grant="M" if getm else "S", ack_count=msg.ack_count)
        )
        if getm:
            # We cease to be owner.  If the block was in the cache proper,
            # invalidate it; if it was awaiting writeback, mark it served
            # (the home will answer our PUTM with WB_STALE).
            bucket = self._set_of(msg.addr)
            if msg.addr in bucket:
                del bucket[msg.addr]
            return
        if leaves or block.state == CacheState.EXCLUSIVE:
            self.c_downgrade.add()
        if leaves:
            block.state = CacheState.SHARED
            self.network.send(
                Message(MessageKind.COPYBACK, src=self.node_id,
                        dst=self.home_of(msg.addr), addr=msg.addr,
                        txn_id=msg.txn_id, data=block.data, cn=cn)
            )
        else:
            block.state = CacheState.OWNED

    def _on_wb_ack(self, msg: Message) -> None:
        """WB_ACK or WB_STALE: either way the writeback is over."""
        mshr = self.wb_txns.pop(msg.addr, None)
        if mshr is None or mshr.txn_id != msg.txn_id:
            if mshr is not None:
                self.wb_txns[msg.addr] = mshr
            return
        self._timeout_table.cancel(mshr.txn_id)
        self.wb_buffer.pop(msg.addr, None)
        transaction_closed(self, mshr.start_interval)

    def _retry_stalled_fwds(self) -> None:
        if not self._stalled_fwds:
            return
        pending, self._stalled_fwds = self._stalled_fwds, []
        for msg in pending:
            self._on_fwd(msg)

    # ------------------------------------------------------------------
    # SafetyNet checkpoint lifecycle (CheckpointParticipant)
    # ------------------------------------------------------------------
    def on_edge(self, new_ccn: int) -> None:
        self.ccn = new_ccn

    def on_rpcn(self, rpcn: int) -> None:
        """Recovery-point advance: deallocate validated checkpoints."""
        if rpcn <= self.rpcn:
            return
        self.rpcn = rpcn
        self.clb.free_below(rpcn)
        for block in self.resident_blocks():
            if block.cn is not None and block.cn <= rpcn:
                block.cn = None
        for block in self.wb_buffer.values():
            if block.cn is not None and block.cn <= rpcn:
                block.cn = None
        self._retry_stalled_fwds()

    def min_open_interval(self) -> Optional[int]:
        """Earliest interval with an incomplete transaction we initiated
        (validation of checkpoint k requires this to be >= k)."""
        intervals = [m.start_interval for m in self.mshrs.values()]
        intervals += [m.start_interval for m in self.wb_txns.values()]
        return min(intervals) if intervals else None

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover_to(self, rpcn: int) -> int:
        """Restore the cache to checkpoint ``rpcn``; returns entries unrolled."""
        self.epoch += 1
        self.mshrs.clear()
        self.wb_txns.clear()
        self.wb_buffer.clear()
        self._stalled_fwds.clear()
        self._timeout_table.clear()
        entries = self.clb.rollback(rpcn)
        for entry in entries:
            state, data, cn = entry.payload
            self._install_for_recovery(entry.addr, state, data, cn)
        # Invalidate everything written or received in an unvalidated
        # interval (non-null CN above the recovery point); normalise the rest.
        for bucket in self._sets.values():
            for addr in [a for a, b in bucket.items()
                         if b.cn is not None and b.cn > rpcn]:
                del bucket[addr]
            for block in bucket.values():
                block.cn = None
        self.rpcn = rpcn
        return len(entries)

    def _install_for_recovery(self, addr: int, state: str, data: int,
                              cn: Optional[int]) -> None:
        bucket = self._set_of(addr)
        block = bucket.get(addr)
        if block is None:
            block = CacheBlock(addr, state, data, cn)
            bucket[addr] = block
            if len(bucket) > self._assoc:
                # Should be impossible: every restored block was resident
                # at the recovery point, when its set held at most
                # ``assoc`` blocks.  The counter records a run in which
                # that invariant failed.
                self.c_recovery_overflow.add()
        else:
            block.state = state
            block.data = data
            block.cn = cn

    # ------------------------------------------------------------------
    # Introspection (tests, validation)
    # ------------------------------------------------------------------
    def owned_state(self) -> Dict[int, Tuple[str, int]]:
        """Map of owner blocks -> (state, data); the architected memory
        image this cache is responsible for."""
        out: Dict[int, Tuple[str, int]] = {}
        for block in self.resident_blocks():
            if block.is_owner():
                out[block.addr] = (block.state, block.data)
        for block in self.wb_buffer.values():
            out[block.addr] = (block.state, block.data)
        return out
