"""Home memory/directory controller with SafetyNet support.

Each node is the home for an interleaved slice of physical memory.  The
home serialises coherence transactions per block (busy + bounded queue +
NACK), logs every memory-value and ownership change into its CLB under the
once-per-interval rule (:func:`repro.core.clb.needs_log`), and — for
three-hop transactions — keeps the log entry *provisional* until the
requestor's FINAL_ACK reveals the true point of atomicity, then retags it
(paper §2.3/§3.7: the final acknowledgment informs the directory of the
transaction's point of atomicity; home-side and owner-side undo records
must share that interval or recovery would leave the directory and the
caches disagreeing about ownership).

:meth:`MemoryController.routes` names the message kinds the home serves.
Each reply has one path: every refusal goes out through ``_nack``, every
reply after a memory or directory latency through
:func:`~repro.coherence.state.schedule_in_epoch` (a recovery in between
drops it), and PUTM and PUTE share ``_process_writeback``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.config import SystemConfig
from repro.coherence.protocol import CoherenceProtocol, resolve_protocol
from repro.coherence.state import DirEntry, MEMORY_OWNER, schedule_in_epoch
from repro.core.clb import CheckpointLogBuffer, LogEntry, needs_log
from repro.interconnect.messages import Message, MessageKind
from repro.interconnect.network import Network
from repro.sim.deadlines import DeadlineTable
from repro.sim.kernel import Simulator
from repro.sim.stats import StatsRegistry


class _BusyTxn:
    """An open transaction at the home (blocking-per-block window).

    ``needs_copyback`` marks a MESI read-forward: the window stays open
    until *both* the requestor's FINAL_ACK and the ex-owner's COPYBACK
    arrive (a FINAL_ACK racing ahead would otherwise let the next queued
    request forward to the ex-owner, which is no longer the owner).
    """

    __slots__ = ("txn_id", "requestor", "kind", "log_entry",
                 "start_interval", "final_acked", "needs_copyback")

    def __init__(self, txn_id: int, requestor: int, kind: MessageKind,
                 start_interval: int) -> None:
        self.txn_id = txn_id
        self.requestor = requestor
        self.kind = kind
        self.log_entry: Optional[LogEntry] = None  # provisional (3-hop only)
        self.start_interval = start_interval
        self.final_acked = False
        self.needs_copyback = False


class MemoryController:
    """One node's share of memory plus its directory."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        config: SystemConfig,
        network: Network,
        clb: CheckpointLogBuffer,
        stats: StatsRegistry,
        on_fault: Optional[Callable[[str], None]] = None,
        protocol: Optional[CoherenceProtocol] = None,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.config = config
        self.network = network
        self.clb = clb
        self.stats = stats
        self.on_fault = on_fault
        self.protocol = (protocol if protocol is not None
                         else resolve_protocol(config.protocol))

        self.ccn = 1
        self.rpcn = 1
        self.epoch = 0
        # CheckpointParticipant readiness hook (set by the ValidationAgent).
        self.on_readiness_changed: Optional[Callable[[], None]] = None

        self.values: Dict[int, int] = {}        # sparse; absent -> 0
        self.block_cn: Dict[int, int] = {}      # sparse; absent -> null CN
        self.directory: Dict[int, DirEntry] = {}
        self.busy: Dict[int, _BusyTxn] = {}
        self.queues: Dict[int, Deque[Message]] = {}
        # Optional detection hardening (config.home_request_timeout): an
        # open transaction that outlives the bound is reported as a fault
        # instead of waiting for the recovery-point watchdog.  Same
        # deadline-table machinery as the requestor-side cache timeouts.
        self._timeout_table: Optional[DeadlineTable] = (
            DeadlineTable(sim, "home.timeout_sweep")
            if (config.home_request_timeout and on_fault is not None)
            else None
        )

        ns = f"node{node_id}.home"
        self.c_requests = stats.counter(f"{ns}.requests")
        self.c_data_served = stats.counter(f"{ns}.data_served")
        self.c_forwards = stats.counter(f"{ns}.forwards")
        self.c_transfers_logged = stats.counter(f"{ns}.transfers_logged")
        self.c_writebacks = stats.counter(f"{ns}.writebacks")
        self.c_stale_writebacks = stats.counter(f"{ns}.stale_writebacks")
        self.c_nacks_sent = stats.counter(f"{ns}.nacks_sent")
        self.c_retags = stats.counter(f"{ns}.retags")
        self.c_timeouts = stats.counter(f"{ns}.timeouts")

    # ------------------------------------------------------------------
    # State helpers
    # ------------------------------------------------------------------
    def dir_entry(self, addr: int) -> DirEntry:
        entry = self.directory.get(addr)
        if entry is None:
            entry = DirEntry()
            self.directory[addr] = entry
        return entry

    def value_of(self, addr: int) -> int:
        return self.values.get(addr, 0)

    def _needs_log(self, addr: int, tag: int) -> bool:
        return (self.config.safetynet_enabled
                and needs_log(self.block_cn.get(addr), tag))

    def _log_home(self, addr: int, tag: int, force: bool = False,
                  refusable: bool = True) -> Optional[LogEntry]:
        """Log the pre-action (value, owner, sharers, cn) under the
        once-per-interval rule.  Returns the entry if one was created.

        ``force`` bypasses the filter.  Three-hop transfers must always log:
        their entries are retagged forward to the point of atomicity, so a
        later transfer in the same home interval cannot rely on the earlier
        entry to cover its pre-state (the earlier entry may land in a later
        segment than the interval the filter reasoned about).

        A refusable action has already been NACKed if the CLB was full,
        so its append always finds room.  ``refusable=False`` is for the
        COPYBACK alone, which logs past capacity
        (:meth:`~repro.core.clb.CheckpointLogBuffer.append_past_capacity`).
        """
        if not self.config.safetynet_enabled:
            return None
        if not force and not self._needs_log(addr, tag):
            return None
        entry_state = self.dir_entry(addr)
        payload = (
            self.value_of(addr),
            entry_state.owner,
            frozenset(entry_state.sharers),
            self.block_cn.get(addr),
        )
        if refusable:
            entry = self.clb.append(tag, addr, payload)
        else:
            entry = self.clb.append_past_capacity(tag, addr, payload)
        self.c_transfers_logged.add()
        self.block_cn[addr] = tag + 1
        return entry

    def _log_transfer_here(self, addr: int) -> Optional[int]:
        """Log a two-hop ownership transfer out of memory, whose point of
        atomicity is here, now (exact tag, no provisional entry).  Returns
        the CN the data reply carries (None with SafetyNet disabled)."""
        if not self.config.safetynet_enabled:
            return None
        self._log_home(addr, self.ccn)
        out_cn = self.ccn + 1
        self.block_cn[addr] = max(self.block_cn.get(addr) or 0, out_cn)
        return out_cn

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def routes(self) -> Dict[MessageKind, Callable[[Message], None]]:
        """The message kinds the home serves, each with its handler."""
        return {
            MessageKind.GETS: self._accept_request,
            MessageKind.GETM: self._accept_request,
            MessageKind.PUTM: self._accept_request,
            MessageKind.PUTE: self._accept_request,
            MessageKind.FINAL_ACK: self._on_final_ack,
            MessageKind.COPYBACK: self._on_copyback,
        }

    def _accept_request(self, msg: Message) -> None:
        self.c_requests.add()
        addr = msg.addr
        if addr in self.busy:
            queue = self.queues.setdefault(addr, deque())
            if len(queue) >= self.config.home_queue_depth:
                self._nack(msg)
                return
            queue.append(msg)
            return
        self._process(msg)

    def _process(self, msg: Message) -> None:
        if msg.kind == MessageKind.GETS:
            self._process_gets(msg)
        elif msg.kind == MessageKind.GETM:
            self._process_getm(msg)
        else:
            self._process_writeback(msg)

    def _nack(self, msg: Message) -> None:
        """Refuse a request (its block's queue is full, or the CLB has no
        room to log it); the requestor retries after a delay."""
        self.c_nacks_sent.add()
        self.network.send(
            Message(MessageKind.NACK, src=self.node_id, dst=msg.src,
                    addr=msg.addr, txn_id=msg.txn_id)
        )

    def _open_txn(self, addr: int, txn: _BusyTxn) -> None:
        """Open the per-block serialisation window (and, when the home
        timeout is configured, arm its detection deadline)."""
        self.busy[addr] = txn
        if self._timeout_table is not None:
            epoch = self.epoch
            self._timeout_table.arm(
                addr,
                self.sim.now + self.config.home_request_timeout,
                lambda: self._check_timeout(addr, txn, epoch),
            )

    def _check_timeout(self, addr: int, txn: _BusyTxn, epoch: int) -> None:
        if epoch != self.epoch or self.busy.get(addr) is not txn:
            return  # closed (or the machine recovered) since arming
        self.c_timeouts.add()
        self.on_fault(
            f"node{self.node_id} home timeout: {txn.kind.name} {addr:#x} "
            f"txn={txn.txn_id} open since interval {txn.start_interval}"
        )

    def _pop_queue(self, addr: int) -> None:
        queue = self.queues.get(addr)
        if queue:
            nxt = queue.popleft()
            if not queue:
                del self.queues[addr]
            self._process(nxt)

    # ------------------------------------------------------------------
    # GETS
    # ------------------------------------------------------------------
    def _process_gets(self, msg: Message) -> None:
        addr, requestor = msg.addr, msg.src
        entry = self.dir_entry(addr)
        if (entry.owner is MEMORY_OWNER and not entry.sharers
                and self.protocol.exclusive_clean_fill):
            self._process_gets_exclusive(msg, entry)
            return
        txn = _BusyTxn(msg.txn_id, requestor, msg.kind, self.ccn)
        self._open_txn(addr, txn)
        if entry.owner is MEMORY_OWNER:
            entry.sharers.add(requestor)
            # The CN is read when the reply fires: an RPCN broadcast during
            # the memory latency may null it.
            schedule_in_epoch(
                self, self.config.memory_latency,
                lambda: self._send_data(addr, requestor, msg.txn_id, "S",
                                        self.block_cn.get(addr)),
                "home.mem_read",
            )
        else:
            owner = entry.owner
            entry.sharers.add(requestor)
            txn.needs_copyback = self.protocol.copyback_on_read
            self.c_forwards.add()
            schedule_in_epoch(
                self, self.config.directory_latency,
                lambda: self.network.send(
                    Message(MessageKind.FWD_GETS, src=self.node_id, dst=owner,
                            addr=addr, txn_id=msg.txn_id,
                            payload={"requestor": requestor})
                ),
                "home.forward",
            )

    def _process_gets_exclusive(self, msg: Message, entry: DirEntry) -> None:
        """Unshared read miss under mesi/moesi: grant exclusive-clean.

        Ownership transfers memory → requestor, so the home logs under
        the same rules as a two-hop GETM (exact tag, no provisional
        entry: the point of atomicity is here, now)."""
        addr, requestor = msg.addr, msg.src
        if self._needs_log(addr, self.ccn) and self.clb.is_full():
            self._nack(msg)
            return
        txn = _BusyTxn(msg.txn_id, requestor, msg.kind, self.ccn)
        self._open_txn(addr, txn)
        out_cn = self._log_transfer_here(addr)
        entry.owner = requestor
        schedule_in_epoch(
            self, self.config.memory_latency,
            lambda: self._send_data(addr, requestor, msg.txn_id, "E", out_cn),
            "home.mem_read",
        )

    def _send_data(self, addr: int, requestor: int, txn_id: int, grant: str,
                   cn: Optional[int]) -> None:
        """A GETS data reply from memory (S, or exclusive-clean E)."""
        self.c_data_served.add()
        self.network.send(
            Message(MessageKind.DATA, src=self.node_id, dst=requestor,
                    addr=addr, txn_id=txn_id, data=self.value_of(addr),
                    cn=cn, grant=grant)
        )

    # ------------------------------------------------------------------
    # GETM
    # ------------------------------------------------------------------
    def _process_getm(self, msg: Message) -> None:
        addr, requestor = msg.addr, msg.src
        entry = self.dir_entry(addr)
        if entry.owner == requestor:
            self._process_upgrade(msg, entry)
            return
        txn = _BusyTxn(msg.txn_id, requestor, msg.kind, self.ccn)
        invalidatees = entry.sharers - {requestor}
        if entry.owner is MEMORY_OWNER:
            # Two-hop: the point of atomicity is here, now (home CCN).
            if self._needs_log(addr, self.ccn) and self.clb.is_full():
                self._nack(msg)
                return
            self._open_txn(addr, txn)
            out_cn = self._log_transfer_here(addr)
            entry.owner = requestor
            entry.sharers = set()
            self._send_invs(addr, invalidatees, requestor, msg.txn_id)
            acks = len(invalidatees)
            schedule_in_epoch(
                self, self.config.memory_latency,
                lambda: self.network.send(
                    Message(MessageKind.DATA, src=self.node_id, dst=requestor,
                            addr=addr, txn_id=msg.txn_id, data=self.value_of(addr),
                            cn=out_cn, grant="M", ack_count=acks)
                ),
                "home.mem_read",
            )
        else:
            # Three-hop: atomicity is at the owner; log provisionally (always
            # — see _log_home) and retag when the FINAL_ACK tells us the truth.
            if self.clb.is_full():
                self._nack(msg)
                return
            self._open_txn(addr, txn)
            owner = entry.owner
            provisional_tag = self.ccn
            known_cn = self.block_cn.get(addr)
            if known_cn is not None and known_cn - 1 > provisional_tag:
                provisional_tag = known_cn - 1
            txn.log_entry = self._log_home(addr, provisional_tag, force=True)
            entry.owner = requestor
            entry.sharers = set()
            invalidatees.discard(owner)
            self._send_invs(addr, invalidatees, requestor, msg.txn_id)
            self.c_forwards.add()
            acks = len(invalidatees)
            schedule_in_epoch(
                self, self.config.directory_latency,
                lambda: self.network.send(
                    Message(MessageKind.FWD_GETM, src=self.node_id, dst=owner,
                            addr=addr, txn_id=msg.txn_id, ack_count=acks,
                            payload={"requestor": requestor})
                ),
                "home.forward",
            )

    def _process_upgrade(self, msg: Message, entry: DirEntry) -> None:
        """GETM from the current owner (store to an O block): invalidate
        the sharers; no data and no ownership transfer (hence no log)."""
        addr, requestor = msg.addr, msg.src
        txn = _BusyTxn(msg.txn_id, requestor, msg.kind, self.ccn)
        self._open_txn(addr, txn)
        invalidatees = entry.sharers - {requestor}
        entry.sharers = set()
        self._send_invs(addr, invalidatees, requestor, msg.txn_id)
        acks = len(invalidatees)
        schedule_in_epoch(
            self, self.config.directory_latency,
            lambda: self.network.send(
                Message(MessageKind.ACK_COUNT, src=self.node_id, dst=requestor,
                        addr=addr, txn_id=msg.txn_id, ack_count=acks)
            ),
            "home.upgrade",
        )

    def _send_invs(self, addr: int, sharers, requestor: int, txn_id: int) -> None:
        for sharer in sharers:
            self.network.send(
                Message(MessageKind.INV, src=self.node_id, dst=sharer,
                        addr=addr, txn_id=txn_id,
                        payload={"requestor": requestor})
            )

    # ------------------------------------------------------------------
    # PUTM / PUTE (writeback; a PUTE returns exclusive-clean ownership
    # without data)
    # ------------------------------------------------------------------
    def _process_writeback(self, msg: Message) -> None:
        addr, sender = msg.addr, msg.src
        entry = self.dir_entry(addr)
        if entry.owner != sender:
            # The owner changed underneath (a FWD beat this writeback);
            # ownership, and any data, already went to the new owner.
            self.c_stale_writebacks.add()
            self.network.send(
                Message(MessageKind.WB_STALE, src=self.node_id, dst=sender,
                        addr=addr, txn_id=msg.txn_id)
            )
            return
        # The transfer's point of atomicity is owner-side (cn - 1); with
        # SafetyNet disabled the message carries no CN.
        tag = (msg.cn - 1) if msg.cn is not None else self.ccn
        if self._needs_log(addr, tag) and self.clb.is_full():
            self._nack(msg)
            return
        self._log_home(addr, tag)
        if msg.kind == MessageKind.PUTM:
            self.c_writebacks.add()
            self.values[addr] = msg.data
            delay, label = self.config.memory_latency, "home.mem_write"
        else:
            # The block was exclusive-clean: memory's value is already
            # current, so only the directory changes (no memory write).
            delay, label = self.config.directory_latency, "home.dir_write"
        if msg.cn is not None:
            self.block_cn[addr] = max(self.block_cn.get(addr) or 0, msg.cn)
        entry.owner = MEMORY_OWNER
        schedule_in_epoch(
            self, delay,
            lambda: self.network.send(
                Message(MessageKind.WB_ACK, src=self.node_id, dst=sender,
                        addr=addr, txn_id=msg.txn_id)
            ),
            label,
        )

    # ------------------------------------------------------------------
    # COPYBACK (MESI read-forward: the ex-owner returns ownership home)
    # ------------------------------------------------------------------
    def _on_copyback(self, msg: Message) -> None:
        txn = self.busy.get(msg.addr)
        if txn is None or txn.txn_id != msg.txn_id:
            return  # stale (pre-recovery) copyback
        addr = msg.addr
        entry = self.dir_entry(addr)
        # The transfer's point of atomicity is owner-side (cn - 1), like
        # a PUTM.  A copyback cannot be NACKed — the ex-owner already
        # downgraded — so the log is taken even if the CLB is full (CLBs
        # are sized for performance, not correctness).  Checking room when
        # the GETS is forwarded would not do: other logs can fill the CLB
        # before the copyback arrives.
        tag = (msg.cn - 1) if msg.cn is not None else self.ccn
        self._log_home(addr, tag, refusable=False)
        self.c_writebacks.add()
        self.values[addr] = msg.data
        if msg.cn is not None:
            self.block_cn[addr] = max(self.block_cn.get(addr) or 0, msg.cn)
        if entry.owner == msg.src:
            entry.sharers.add(msg.src)
            entry.owner = MEMORY_OWNER
        txn.needs_copyback = False
        self._maybe_close_txn(addr, txn)

    # ------------------------------------------------------------------
    # FINAL_ACK: transaction closes; learn the point of atomicity
    # ------------------------------------------------------------------
    def _on_final_ack(self, msg: Message) -> None:
        txn = self.busy.get(msg.addr)
        if txn is None or txn.txn_id != msg.txn_id:
            return  # stale (pre-recovery) ack
        if txn.log_entry is not None and msg.cn is not None:
            atomicity = msg.cn - 1
            if atomicity != txn.log_entry.tag:
                self.clb.retag(txn.log_entry, atomicity)
                self.c_retags.add()
            current = self.block_cn.get(msg.addr) or 0
            self.block_cn[msg.addr] = max(current, msg.cn)
        txn.final_acked = True
        self._maybe_close_txn(msg.addr, txn)

    def _maybe_close_txn(self, addr: int, txn: _BusyTxn) -> None:
        if not txn.final_acked or txn.needs_copyback:
            return
        start_interval = txn.start_interval
        del self.busy[addr]
        if self._timeout_table is not None:
            self._timeout_table.cancel(addr)
        self._pop_queue(addr)
        # A transaction serialised in an earlier interval closed; it may
        # have been the last thing blocking sign-off of that checkpoint.
        if start_interval < self.ccn and self.on_readiness_changed is not None:
            self.on_readiness_changed()

    # ------------------------------------------------------------------
    # SafetyNet checkpoint lifecycle (CheckpointParticipant)
    # ------------------------------------------------------------------
    def on_edge(self, new_ccn: int) -> None:
        self.ccn = new_ccn

    def on_rpcn(self, rpcn: int) -> None:
        if rpcn <= self.rpcn:
            return
        self.rpcn = rpcn
        self.clb.free_below(rpcn)
        for addr in [a for a, cn in self.block_cn.items() if cn <= rpcn]:
            del self.block_cn[addr]

    def min_open_interval(self) -> Optional[int]:
        """Earliest interval with an open transaction at this home
        (the directory's validation condition, paper §3.5)."""
        intervals = [t.start_interval for t in self.busy.values()]
        return min(intervals) if intervals else None

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover_to(self, rpcn: int) -> int:
        self.epoch += 1
        self.busy.clear()
        self.queues.clear()
        if self._timeout_table is not None:
            self._timeout_table.clear()
        entries = self.clb.rollback(rpcn)
        for entry in entries:
            value, owner, sharers, _cn = entry.payload
            self.values[entry.addr] = value
            self.directory[entry.addr] = DirEntry(owner, set(sharers))
        # Everything that survives is, by construction, state as of the
        # recovery point: all checkpoint numbers become null.
        self.block_cn.clear()
        self.rpcn = rpcn
        return len(entries)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def owner_map(self) -> Dict[int, Optional[int]]:
        return {addr: e.owner for addr, e in self.directory.items()}
