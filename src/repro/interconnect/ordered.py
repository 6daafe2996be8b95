"""A totally ordered broadcast interconnect (for the snooping variant).

Footnote 1 of the paper: "we have also implemented SafetyNet on a system
with a broadcast snooping protocol and a totally ordered interconnect."
Section 2.3 explains why total order makes the logical time base trivial:
every component counts the coherence requests it has processed and uses
that count as logical time — all components then agree, by construction,
on the checkpoint interval of every transaction.

:class:`OrderedBus` serialises broadcasts through one arbitration point
(address bus) and delivers each to every subscriber in the same global
order, tagged with its order index.  Data responses ride a separate
point-to-point data path with its own occupancy.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.interconnect.messages import Message
from repro.sim.kernel import Simulator
from repro.sim.stats import StatsRegistry

SnoopFn = Callable[[Message, int], None]  # (message, global order index)

SNOOP_LATENCY = 10          # cycles from arbitration to snoop delivery
DATA_LATENCY = 40           # cycles of point-to-point data delivery
DATA_BYTES_PER_CYCLE = 6.4  # data-path bandwidth


class OrderedBus:
    """Split-transaction snooping bus: ordered address path + data path."""

    def __init__(
        self,
        sim: Simulator,
        *,
        stats: Optional[StatsRegistry] = None,
        address_cycles: int = 6,       # bus occupancy per broadcast
    ) -> None:
        self.sim = sim
        self.stats = stats or StatsRegistry()
        self.address_cycles = address_cycles
        self._snoopers: List[SnoopFn] = []
        self._data_handlers = {}
        self._addr_free = 0
        self._data_free = 0
        self._order = 0       # global coherence-request count = logical time
        self._epoch = 0

    # ------------------------------------------------------------------
    @property
    def requests_observed(self) -> int:
        """Total broadcasts arbitrated so far (the logical time base)."""
        return self._order

    def subscribe(self, snoop: SnoopFn) -> None:
        self._snoopers.append(snoop)

    def attach_data(self, node_id: int, handler: Callable[[Message], None]) -> None:
        self._data_handlers[node_id] = handler

    # ------------------------------------------------------------------
    def broadcast(self, msg: Message) -> int:
        """Arbitrate and broadcast; returns the request's order index.

        Every subscriber snoops the message at the same delivery instant,
        in subscription order — a total order shared machine-wide.
        """
        start = max(self.sim.now, self._addr_free)
        self._addr_free = start + self.address_cycles
        index = self._order
        self._order += 1
        self.stats.counter("bus.broadcasts").add()
        deliver_at = start + self.address_cycles + SNOOP_LATENCY
        epoch = self._epoch
        self.sim.schedule(
            deliver_at,
            lambda: epoch == self._epoch and self._deliver(msg, index),
            "bus.snoop",
        )
        return index

    def _deliver(self, msg: Message, index: int) -> None:
        for snoop in self._snoopers:
            snoop(msg, index)

    def send_data(self, msg: Message) -> None:
        """Point-to-point data response (not ordered, bandwidth-limited)."""
        ser = max(1, round(msg.size_bytes / DATA_BYTES_PER_CYCLE))
        start = max(self.sim.now, self._data_free)
        self._data_free = start + ser
        self.stats.counter("bus.data_messages").add()
        epoch = self._epoch
        self.sim.schedule(
            start + ser + DATA_LATENCY,
            lambda: epoch == self._epoch and self._data_handlers[msg.dst](msg),
            "bus.data",
        )

    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Discard everything in flight (recovery)."""
        self._epoch += 1
        self._addr_free = 0
        self._data_free = 0
