"""Pluggable network arbitration policies.

The network resolves two same-cycle ties deterministically: which flight
wins a link when several claim it in one cycle
(:meth:`~repro.interconnect.network.Network._claim_chain`), and the
order a cycle's arrivals are handed to endpoints
(:meth:`~repro.interconnect.network.Network._flush_deliveries`).  Both
historically used message-id order — a FIFO-by-age rule.  This module
lifts that decision into an :class:`ArbiterPolicy` object behind a
registry (the ``PROTOCOLS`` pattern):

* ``fifo`` — the historical message-id order and the bit-identity
  oracle.  The network keeps its inline sorts on this path, so the
  default configuration's hot path is untouched.
* ``wrr`` — weighted round-robin over *input directions*: each
  contended cycle rotates which direction (injection, east, west,
  north, south, or the ew/ns crossover) is served first, with
  per-direction weights expanding their share of the rotation schedule.
* ``priority`` — coherence-class arbitration: control messages
  (requests, acks, invalidations — 8 bytes) beat data carriers
  (72 bytes), with cycle-based aging promoting a waiting data message
  after :data:`PriorityArbiter.aging_limit` cycles so data can never
  starve behind a control storm.

Policies are stateful (rotation offsets, ages), so the registry maps
names to *factories* and every :class:`~repro.interconnect.network.
Network` gets a fresh instance.  Arbitration composes with express
hops for free: contention always materialises an in-express flight
back to hop-by-hop state before the chain is re-resolved, so a policy
only ever sees true per-hop claims.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.interconnect.messages import DATA_KINDS

#: Canonical input-direction names, in registry order.
DIRECTIONS = ("inj", "east", "west", "north", "south", "cross")


def classify_direction(prev, here, width: int, height: int) -> str:
    """Input direction of a message at vertex ``here`` that came from
    ``prev`` (both network vertices), on a ``width x height`` torus.

    ``inj`` — injected by the local node; ``cross`` — the ew/ns
    crossover inside one switch; otherwise the ring port it entered by
    (a message moving +x entered on the *west* port, and so on, with
    ring wraparound resolved modulo the dimension size).
    """
    if prev is None or prev[0] == "node":
        return "inj"
    p, h = prev[1], here[1]
    if p.plane != h.plane:
        return "cross"
    if p.plane == "ew":
        return "west" if (h.x - p.x) % width == 1 else "east"
    return "north" if (h.y - p.y) % height == 1 else "south"


class ArbiterPolicy:
    """Base class: orders same-cycle link claims and deliveries.

    ``order_chain`` receives the live claim-chain list (flight objects
    with a ``.mid`` message-id and a ``.msg`` message) and must sort it
    in place; ``direction_of`` maps a chain member to a
    :data:`DIRECTIONS` name.  ``order_deliveries`` receives the cycle's
    arrived messages.  Both must be *deterministic* functions of the
    arguments plus policy state that advances at most once per
    contended cycle — the network re-resolves a chain every time a new
    claimant joins it within the cycle, and re-resolution must be
    stable.
    """

    name = "base"
    #: The network keeps its inline message-id sorts when this is True
    #: (the default path pays no arbiter call at all).
    is_fifo = False
    #: Optional per-delivery hook (bound method or None): policies that
    #: track per-message state set this to prune it on delivery.
    note_delivery: Optional[Callable] = None

    def order_chain(self, link, chain: List, now: int,
                    direction_of: Callable) -> None:
        raise NotImplementedError

    def order_deliveries(self, ready: List) -> None:
        ready.sort(key=lambda m: m.msg_id)

    def reset(self) -> None:
        """Forget all state (network drain/recovery)."""


class FifoArbiter(ArbiterPolicy):
    """Message-id order — the historical rule and bit-identity oracle."""

    name = "fifo"
    is_fifo = True

    def order_chain(self, link, chain: List, now: int,
                    direction_of: Callable) -> None:
        chain.sort(key=lambda m: m.mid)


class WrrArbiter(ArbiterPolicy):
    """Weighted round-robin over input directions.

    Each link keeps a rotation offset into a weight-expanded schedule
    of :data:`DIRECTIONS` (a direction with weight 2 appears twice, so
    it is served first twice as often).  The offset advances once per
    *contended* cycle — re-resolutions within one cycle reuse the same
    offset, so chain order is stable as claimants join.  Members of the
    same direction fall back to message-id order.
    """

    name = "wrr"

    def __init__(self, weights: Optional[Mapping[str, int]] = None) -> None:
        w = dict.fromkeys(DIRECTIONS, 1)
        w["inj"] = 2  # local injection gets twice the rotation share
        if weights:
            w.update(weights)
        self.weights = w
        self.schedule: Tuple[str, ...] = tuple(
            d for d in DIRECTIONS for _ in range(max(0, w[d])))
        if not self.schedule:
            raise ValueError("wrr weights must include a positive weight")
        self._offset: Dict[object, int] = {}
        self._cycle: Dict[object, int] = {}

    def _offset_for(self, link, now: int) -> int:
        last = self._cycle.get(link)
        if last != now:
            self._cycle[link] = now
            if last is not None:
                self._offset[link] = (
                    self._offset.get(link, 0) + 1) % len(self.schedule)
        return self._offset.get(link, 0)

    def rank(self, direction: str, offset: int) -> int:
        """Distance from ``offset`` to the direction's first slot in
        the cyclic schedule (smaller = served earlier)."""
        sched = self.schedule
        n = len(sched)
        for i in range(n):
            if sched[(offset + i) % n] == direction:
                return i
        return n  # unknown direction: after everything scheduled

    def order_chain(self, link, chain: List, now: int,
                    direction_of: Callable) -> None:
        offset = self._offset_for(link, now)
        chain.sort(key=lambda m: (self.rank(direction_of(m), offset), m.mid))

    def reset(self) -> None:
        self._offset.clear()
        self._cycle.clear()


class PriorityArbiter(ArbiterPolicy):
    """Coherence-class priority: control beats data, with aging.

    Data carriers (anything in
    :data:`~repro.interconnect.messages.DATA_KINDS`) yield to control
    messages at every contended claim and every delivery flush.  A data
    message that has been contending for ``aging_limit`` cycles is
    promoted to the control class, bounding its starvation: it can lose
    at most ``aging_limit`` cycles plus one final chain's worth of
    control service.
    """

    name = "priority"

    def __init__(self, aging_limit: int = 256) -> None:
        self.aging_limit = aging_limit
        self._first_seen: Dict[int, int] = {}
        self.note_delivery = self._note_delivery

    def _klass(self, msg, now: int) -> int:
        if msg.kind not in DATA_KINDS:
            return 0
        first = self._first_seen.setdefault(msg.msg_id, now)
        return 0 if now - first >= self.aging_limit else 1

    def order_chain(self, link, chain: List, now: int,
                    direction_of: Callable) -> None:
        chain.sort(key=lambda m: (self._klass(m.msg, now), m.mid))

    def order_deliveries(self, ready: List) -> None:
        # Deliveries are end-of-cycle; class only (ages already settled).
        ready.sort(
            key=lambda m: (0 if m.kind not in DATA_KINDS else 1, m.msg_id))

    def _note_delivery(self, msg) -> None:
        self._first_seen.pop(msg.msg_id, None)

    def reset(self) -> None:
        self._first_seen.clear()


ARBITERS = {
    "fifo": FifoArbiter,
    "wrr": WrrArbiter,
    "priority": PriorityArbiter,
}
ARBITER_NAMES = tuple(sorted(ARBITERS))


def resolve_arbiter(name: str) -> ArbiterPolicy:
    """Instantiate a fresh policy by registry name (policies are
    stateful, so networks never share an instance)."""
    try:
        factory = ARBITERS[name]
    except KeyError:
        raise ValueError(
            f"unknown arbiter {name!r}; one of {sorted(ARBITERS)}"
        ) from None
    return factory()
