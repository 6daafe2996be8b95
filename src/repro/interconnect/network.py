"""Cycle-approximate network model for the half-switch torus.

Messages traverse precomputed routes hop by hop.  Each directed link has an
occupancy horizon (serialisation at 6.4 bytes/cycle), each half-switch adds
a pipeline latency and has finite buffering, and faults act exactly where
the paper puts them: a transient can drop one message inside a switch, and
killing a half-switch loses every message buffered in it plus anything that
later arrives there (until the routing tables are recomputed around it).

All per-link and per-switch state lives in flat lists indexed by the
topology's integer vertex and link ids (see
:mod:`repro.interconnect.topology`); routes arrive from the routing table
as id tuples.  Public vertices (``("sw", HalfSwitchId)``) appear only
where a switch is named outside the network: drop hooks, loss reasons
and arbiters.

Hop scheduling is *slotted*: each hop is one kernel dispatch that performs
leave + arrive + depart together, and in the common case one Python frame
(:meth:`_Flight.__call__`): the flight leaves its switch, enters the next,
claims the outgoing link and schedules its next hop itself.  It hands off
to the general arrive/depart methods only where they would do more than
that frame: an express hold (armed drop hooks), a dead or full switch,
an express flight's claim on the switch it enters or the link it leaves
by, and a same-cycle claim chain.  An express flight elsewhere in the
machine does not move a hop off its one frame: with no claimant to
materialise, the general path would run the same express test, claim
and schedule.

Hops deliberately do NOT share heap entries: batching same-cycle hop
completions into one dispatch would run a later-scheduled hop at the
earliest hop's heap position, reordering its processing (and any traffic
its delivery injects) against non-hop events of the same cycle — an
order-dependent tie that changes results once checkpoint-validation
traffic is completion-triggered.

*Express hops* recover multi-hop advancement without re-opening that
wound: when every switch on a flight's remaining path segment is idle —
no live serialisation entries (the per-switch next-free-cycle register
answers that in O(1)), no link contention, no armed drop hooks — the
whole segment's hop times are computed arithmetically and ONE
``net.express`` dispatch is scheduled at the arrival into the *last*
switch, which then runs the ordinary arrive/depart for the final hop.  Keeping the final hop ordinary anchors
the delivery event's insertion at the same cycle as hop-by-hop mode, so
its heap position relative to everything scheduled at other cycles is
unchanged.  The skipped intermediate dispatches are pure bookkeeping
(residency writes on an idle switch) with no observer — and the moment an
observer appears, the flight *materialises*: any send or hop that touches
a claimed segment link or switch, a fault injector arming
(:meth:`express_hold`), or a switch kill first restores exactly the
residency/link state hop-by-hop scheduling would have produced at the
current cycle, then falls back to one event per hop for the rest of the
path.  Ties at the materialisation cycle resolve observer-first (a hop
whose arrival is scheduled for *this* cycle has not happened yet) — the
same deterministic-tie family as the release-cycle rule below.  The
hop-by-hop reference (one ``net.hop`` dispatch per switch throughout) is
one unmatched :meth:`Network.express_hold` before the first event.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.interconnect.arbiter import (
    ArbiterPolicy,
    classify_direction,
    resolve_arbiter,
)
from repro.interconnect.messages import Message
from repro.interconnect.routing import RoutingTable
from repro.interconnect.topology import HalfSwitchId, TorusTopology, Vertex
from repro.sim.kernel import Simulator
from repro.sim.stats import StatsRegistry

DeliverFn = Callable[[Message], None]
DropHook = Callable[[Message, Vertex], bool]

# Hot-path event labels, interned once per process: the hop label alone is
# attached to the majority of all kernel events in a full-machine run
# (ROADMAP "event-label allocation").
LABEL_HOP = sys.intern("net.hop")
LABEL_EXPRESS = sys.intern("net.express")
LABEL_LOCAL = sys.intern("net.local_deliver")
LABEL_DELIVER = sys.intern("net.deliver")
LABEL_RETRY = sys.intern("net.buffer_retry")


class _Flight:
    """Book-keeping for one in-flight message.

    The flight doubles as its own hop callback (``__call__``, the whole
    hop in one frame): the slotted scheduler queues the flight object
    directly, avoiding a per-hop closure allocation on the hottest
    scheduling path.  ``ser`` is the link-serialisation time, computed
    once per message instead of once per hop.  ``path`` holds the route's
    vertex ids and ``links[k]`` the id of the link from ``path[k]`` to
    ``path[k + 1]``.

    Express state (``exp_*``) is live only while the flight is advancing
    a segment arithmetically: ``exp_base`` is the path index the segment
    started from, ``exp_times[j]`` the arrival cycle at path index
    ``exp_base + 1 + j`` (the last entry is the arrival into the final
    switch, where the one ``net.express`` event fires), ``exp_saved`` the
    pre-claim link-horizon values needed to unwind on materialisation.
    ``no_express`` pins a materialised flight to hop-by-hop for good.

    Handle lifetime: ``claim_event`` and ``exp_event`` hold the kernel
    entry that calls back into this flight, which is a reference cycle
    while it is set.  Each callback (:meth:`__call__`,
    :meth:`Network._express_complete`) clears its own handle as its
    first statement, so a flight holds a handle only while that entry
    is queued, and a delivered, lost or stale (drained) flight is freed
    by reference counting when its last entry fires instead of waiting
    for the cycle collector.  :meth:`Network._lose` leaves the handle
    alone: a deferred-verdict drop can hit a flight that claimed a link
    this cycle, and a later claim in the same cycle may still re-resolve
    that claim chain and cancel the flight's hop; the hop that does fire
    clears the handle.  :meth:`Network._claim_chain` and
    :meth:`Network._materialize` thus only ever cancel live handles: a
    claim made this cycle, whose hop fires in a later one, or an express
    segment still in the air.
    """

    __slots__ = ("msg", "mid", "path", "links", "index", "dropped", "epoch",
                 "net", "ser", "no_express", "exp_base", "exp_times",
                 "exp_saved", "exp_event", "claim_cycle", "claim_link",
                 "claim_start", "claim_base", "claim_next", "claim_event")

    def __init__(self, msg: Message, path: Tuple[int, ...],
                 links: Tuple[int, ...], epoch: int, net: "Network",
                 ser: int) -> None:
        self.msg = msg
        self.mid = msg.msg_id   # hop-path alias (skips the msg deref)
        self.path = path
        self.links = links
        self.index = 0          # path index the message is currently at
        self.dropped = False
        self.epoch = epoch
        self.net = net
        self.ser = ser
        self.no_express = False
        self.exp_base = 0
        self.exp_times: Optional[List[int]] = None
        self.exp_saved: Optional[List[int]] = None
        self.exp_event = None
        # Claim-chain bookkeeping (see Network._claim_chain): the cycle,
        # link id and start of this flight's latest link claim, the link
        # horizon before the chain began, the next chain member, and the
        # scheduled hop's kernel handle a re-resolution must cancel.
        self.claim_cycle = -1
        self.claim_link = -1
        self.claim_start = 0
        self.claim_base = 0
        self.claim_next: Optional["_Flight"] = None
        self.claim_event = None

    def __call__(self) -> None:
        """One hop in one frame: arrive at the next vertex and, at a
        switch, claim the next link, record the buffer residency and
        schedule the following hop (:meth:`Network._depart`'s plain
        claim, for a flight that just arrived).

        Anything unusual takes the general path before this frame has
        changed any state: :meth:`Network._arrive` when a drop hook is
        armed (any express hold), the switch is dead or at capacity, or
        an express flight has claimed this switch or the outgoing link
        (it must materialise first); :meth:`Network._claim_chain` when
        the link already has a claim this cycle.  Managed drop hooks are
        inert while no hold is in place, so without a claimant the
        general path would do exactly what this frame does.  Express is
        attempted exactly where :meth:`Network._depart` attempts it.
        """
        self.claim_event = None
        net = self.net
        if self.dropped or self.epoch != net._epoch:
            return
        index = self.index + 1
        path = self.path
        here = path[index]
        n_nodes = net._n_nodes
        resident = net._resident_until
        if here >= n_nodes:
            table = resident[here]
            if (net._express_holds or net._dead[here]
                    or len(table) >= net.buffer_capacity
                    or (net._express_flights
                        and (net._express_switches[here] is not None
                             or net._express_links[self.links[index]]
                             is not None))):
                net._arrive(self)
                return
        self.index = index
        # Leave, finalised (see Network._arrive).
        prev = path[index - 1]
        if prev >= n_nodes:
            resident[prev].pop(self.mid, None)
        if here < n_nodes:
            # Destination endpoint.
            del net._in_flight[self.mid]
            net._enqueue_delivery(self.msg)
            return
        link = self.links[index]
        if (net._express_on and not self.no_express
                and len(path) - index >= 4 and net._try_express(self)):
            return
        now = net.sim.now
        head = net._claim_head[link]
        if (head is not None and head.claim_cycle == now
                and head.claim_link == link):
            net._claim_chain(self, link, here, head)
            return
        link_free = net._link_free
        base = link_free[link]
        start = now if base <= now else base
        release = start + self.ser
        link_free[link] = release
        self.claim_cycle = now
        self.claim_link = link
        self.claim_start = start
        self.claim_base = base
        self.claim_next = None
        net._claim_head[link] = self
        if start != now:
            net.c_contention_cycles.add(start - now)
        table[self.mid] = release
        next_free = net._switch_next_free
        if release > next_free[here]:
            next_free[here] = release
        self.claim_event = net.sim.schedule(
            release + net.link_latency + net.switch_latency, self, LABEL_HOP)

    def express_call(self) -> None:
        self.net._express_complete(self)


class Network:
    """The interconnect: inject with :meth:`send`, receive via endpoints.

    Residency semantics: a message occupies a switch buffer from the
    moment it is accepted until it is fully serialised onto the outgoing
    link.  Each entry records that release time (``_resident_until``),
    finalised in the hop dispatch itself rather than by a dedicated leave
    event.  An observation (capacity check or switch kill) landing on
    *exactly* the release cycle therefore sees the entry gone — a
    deterministic rule, independent of kernel event order.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: TorusTopology,
        routing: RoutingTable,
        *,
        stats: Optional[StatsRegistry] = None,
        switch_latency: int = 8,
        link_latency: int = 4,
        bytes_per_cycle: float = 6.4,
        buffer_capacity: int = 64,
        arbiter: "str | ArbiterPolicy" = "fifo",
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.routing = routing
        self.stats = stats or StatsRegistry()
        self.switch_latency = switch_latency
        self.link_latency = link_latency
        self.bytes_per_cycle = bytes_per_cycle
        self.buffer_capacity = buffer_capacity
        # Arbitration policy for same-cycle ties (link claims, delivery
        # order); ``fifo`` is message-id order.
        self.arbiter = (arbiter if isinstance(arbiter, ArbiterPolicy)
                        else resolve_arbiter(arbiter))
        self._arb_note = self.arbiter.note_delivery

        # Vertex ids at or above this are half-switches.
        self._n_nodes = topology.num_nodes
        self._vertices = topology.vertices
        # Live view of the topology's per-vertex dead flags (per-hop check).
        self._dead = topology.dead
        self._endpoints: Dict[int, DeliverFn] = {}
        self._reset_tables()
        # Express flights by msg_id; empty means no link or switch is
        # express-claimed, so the per-hop claim probes can be skipped.
        self._express_flights: Dict[int, _Flight] = {}
        # While > 0 express advancement is ineligible (armed drop hooks,
        # unmanaged hooks); see express_hold/express_release.
        self._express_holds = 0
        # Adaptive gate: committing earns a credit (capped), being
        # interrupted costs a large one, and each send restores one when
        # exhausted.  Contended phases therefore stop paying for doomed
        # segment commits almost immediately, while idle phases keep full
        # express advancement; results are mode-identical either way, so
        # the gate only shapes wall-clock cost.
        self._express_credit = 32
        # Folded gate: no holds AND credit left.  Kept current by the
        # three mutation sites so _depart tests one flag.
        self._express_on = True
        # Delivery slotting (see _enqueue_delivery): this cycle's arrived
        # messages, handed to endpoints in msg_id order at end of cycle.
        self._deliver_ready: List[Message] = []
        self._deliver_cycle = -1
        self._in_flight: Dict[int, _Flight] = {}
        self._drop_hooks: List[DropHook] = []
        self._epoch = 0
        # Link serialisation cycles by message size (two sizes exist),
        # filled from _serialization on first use.
        self._ser_cycles: Dict[int, int] = {}

        # Pre-bound counters: send/deliver/lose run once per message (and
        # contention accounting once per hop), so looking each name up in
        # the registry on every call would put a dict lookup on the hot
        # path.
        self.c_messages_sent = self.stats.counter("net.messages_sent")
        self.c_bytes_sent = self.stats.counter("net.bytes_sent")
        self.c_messages_delivered = self.stats.counter(
            "net.messages_delivered")
        self.c_messages_lost = self.stats.counter("net.messages_lost")
        self.c_contention_cycles = self.stats.counter("net.contention_cycles")
        self.c_buffer_stalls = self.stats.counter("net.buffer_stalls")
        # Express-hop telemetry (fed to the `repro profile` efficiency
        # line): flights that went express, hops they advanced without a
        # per-hop dispatch, and interruptions back to hop-by-hop.
        self.c_express_flights = self.stats.counter("net.express_flights")
        self.c_express_hops = self.stats.counter("net.express_hops")
        self.c_express_interrupts = self.stats.counter(
            "net.express_interrupts")

    def _reset_tables(self) -> None:
        """(Re)create the per-link and per-vertex state tables."""
        num_links = self.topology.num_links
        num_vertices = self.topology.num_vertices
        # Per link: occupancy horizon, the most recent claimant (claim
        # slotting, see _claim_chain), and the express flight holding it.
        self._link_free: List[int] = [0] * num_links
        self._claim_head: List[Optional[_Flight]] = [None] * num_links
        self._express_links: List[Optional[_Flight]] = [None] * num_links
        # Per switch: msg_id -> cycle each buffer entry is released.
        self._resident_until: List[Dict[int, int]] = [
            {} for _ in range(num_vertices)]
        # Per-switch next-free-cycle register: the max release cycle ever
        # written for the switch.  Monotone per write, so "every entry's
        # release has passed" — the express idle test — is one O(1)
        # comparison instead of a table scan.
        self._switch_next_free: List[int] = [0] * num_vertices
        self._express_switches: List[Optional[_Flight]] = [None] * num_vertices

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, node_id: int, deliver: DeliverFn) -> None:
        """Register the delivery callback for a node endpoint."""
        self._endpoints[node_id] = deliver

    def add_drop_hook(self, hook: DropHook, *, managed: bool = False) -> None:
        """Hooks run as a message enters a switch; True means drop it.

        Express hops skip intermediate switch entries, so a hook can only
        be trusted to see every switch while an :meth:`express_hold` is in
        place.  A *managed* registrar (e.g.
        :class:`~repro.interconnect.faults.PeriodicArmedFault`) brackets
        its armed windows with :meth:`express_hold` / :meth:`express_release`
        itself; an unmanaged hook pins a hold for the network's lifetime.
        While no hold is in place the one-frame hop does not consult the
        hooks at all, so a managed hook must be inert (return False and
        change nothing) outside its armed windows.
        """
        self._drop_hooks.append(hook)
        if not managed:
            self.express_hold()

    def express_hold(self) -> None:
        """Disable express advancement and materialise every in-express
        flight (so per-switch observers — armed drop hooks above all —
        see each subsequent switch entry individually).  Holds nest; one
        unmatched hold gives hop-by-hop scheduling for the network's
        lifetime."""
        self._express_holds += 1
        self._express_on = False
        if self._express_flights:
            for flight in list(self._express_flights.values()):
                self._materialize(flight)

    def express_release(self) -> None:
        """Balance one :meth:`express_hold` (flights may go express again)."""
        if self._express_holds <= 0:
            raise RuntimeError("express_release without a matching hold")
        self._express_holds -= 1
        self._refresh_express_on()

    def _refresh_express_on(self) -> None:
        self._express_on = (not self._express_holds
                            and self._express_credit > 0)

    # ------------------------------------------------------------------
    # Injection
    # ------------------------------------------------------------------
    def send(self, msg: Message) -> None:
        """Inject a message; it will be delivered (or lost) asynchronously."""
        if msg.dst == msg.src:
            # Local delivery still costs the node-internal latency.  The
            # epoch guard makes drain() discard queued local deliveries too.
            # Local traffic counts toward both send counters: bandwidth
            # accounting (Fig. 7) sums bytes over *all* coherence traffic,
            # and a node's home slice legitimately serves its own cache.
            self.c_messages_sent.add()
            self.c_bytes_sent.add(msg.size_bytes)
            epoch = self._epoch
            self.sim.schedule_after(
                1,
                lambda m=msg: epoch == self._epoch
                and self._enqueue_delivery(m),
                LABEL_LOCAL,
            )
            return
        path, links = self.routing.route(msg.src, msg.dst)
        ser = self._ser_cycles.get(msg.size_bytes)
        if ser is None:
            ser = self._ser_cycles[msg.size_bytes] = self._serialization(msg)
        flight = _Flight(msg, path, links, self._epoch, self, ser)
        self._in_flight[msg.msg_id] = flight
        credit = self._express_credit
        if credit <= 0:
            self._express_credit = credit + 1  # probe calmer traffic
            if credit == 0:
                self._refresh_express_on()
        self.c_messages_sent.add()
        self.c_bytes_sent.add(msg.size_bytes)
        self._depart(flight)

    @property
    def in_flight_count(self) -> int:
        return len(self._in_flight)

    def buffer_depth(self) -> int:
        """Live switch-buffer residents, machine-wide (observability view).

        Counts entries whose release time has not passed yet (released
        entries linger in the tables until lazily pruned, so the raw sizes
        overcount).  Read-only: the lazy pruning state is left untouched.

        In-express flights have no residency entries for the intermediate
        switches they are advancing through arithmetically, so their
        occupancy is reconstructed from the flight's timetable: the
        message occupies switch ``k`` while serialising onto the next
        link, i.e. during ``[arrive_k, arrive_k + ser)``.  (The starting
        switch and the final switch use real entries.)  Without this the
        depth would undercount exactly when the network is busiest moving
        express traffic.
        """
        now = self.sim.now
        depth = sum(
            1
            for table in self._resident_until
            for until in table.values()
            if until > now
        )
        for flight in self._express_flights.values():
            times = flight.exp_times
            ser = flight.ser
            for j in range(len(times) - 1):  # intermediates; last is real
                a = times[j]
                if a > now:
                    break
                # Sampling runs after the cycle's events: a hop arriving
                # at exactly ``now`` has happened and holds its buffer
                # (hop-by-hop writes residency [a, a + ser) in the same
                # dispatch), unlike the *observer-first* rule used for
                # materialisation, where the observer runs mid-cycle
                # before the arrival.
                if now < a + ser:
                    depth += 1
                    break  # a flight occupies at most one switch
        return depth

    # ------------------------------------------------------------------
    # Hop machinery
    # ------------------------------------------------------------------
    def _serialization(self, msg: Message) -> int:
        return max(1, round(msg.size_bytes / self.bytes_per_cycle))

    def _depart(self, flight: _Flight) -> None:
        """Move the message from its current vertex onto the next link.

        The general path: sends, and the hops :meth:`_Flight.__call__`
        hands to :meth:`_arrive`."""
        if flight.dropped or flight.epoch != self._epoch:
            return
        index = flight.index
        link = flight.links[index]
        if self._express_flights:
            # This send/hop crosses an in-express segment: the express
            # flight claimed the link, so restore its hop-by-hop state
            # before computing contention against it.
            other = self._express_links[link]
            if other is not None:
                self._materialize(other)
        if (self._express_on
                and not flight.no_express
                and len(flight.path) - index >= 4
                and self._try_express(flight)):
            return
        now = self.sim.now
        here = flight.path[index]
        head = self._claim_head[link]
        if (head is not None and head.claim_cycle == now
                and head.claim_link == link):
            self._claim_chain(flight, link, here, head)
            return
        link_free = self._link_free
        base = link_free[link]
        start = now if base <= now else base
        link_free[link] = start + flight.ser
        flight.claim_cycle = now
        flight.claim_link = link
        flight.claim_start = start
        flight.claim_base = base
        flight.claim_next = None
        self._claim_head[link] = flight
        if start != now:
            self.c_contention_cycles.add(start - now)
        self._finish_claim(flight, here, start)

    def _claim_chain(self, flight: _Flight, link: int, here: int,
                     head: _Flight) -> None:
        """Claim slotting: same-cycle claims on one link serialise in
        ``msg_id`` order, not dispatch order.

        Which flight wins a link when two claim it in the same cycle
        would otherwise be event-insertion order — history express
        advancement rewrites (a materialised flight's hop is re-queued
        with a fresh sequence number).  Re-resolving the cycle's claim
        chain against a canonical key keeps every mode's contention
        pattern identical.  Chains are rare (1,119 in 243,791 dispatches
        on the 8x8 benchmark run), so the single-claim paths — the
        one-frame hop and :meth:`_depart` — stay lean.
        """
        now = self.sim.now
        if head.exp_times is not None:
            # The head committed an express segment from this link this
            # cycle: pin it back to a real hop so its claim events exist.
            self._materialize(head)
        chain = []
        member: Optional[_Flight] = head
        while member is not None:
            chain.append(member)
            member = member.claim_next
        old_total = sum(m.claim_start - now for m in chain)
        chain.append(flight)
        self.arbiter.order_chain(link, chain, now, self._input_direction)
        base = head.claim_base
        start = now if base <= now else base
        new_total = 0
        prev: Optional[_Flight] = None
        for m in chain:
            m.claim_cycle = now
            m.claim_link = link
            m.claim_base = base
            m.claim_next = None
            if prev is not None:
                prev.claim_next = m
            prev = m
            if m is flight or m.claim_start != start:
                if m is not flight:
                    self.sim.cancel(m.claim_event)
                m.claim_start = start
                self._finish_claim(m, here, start)
            new_total += start - now
            start += m.ser
        self._link_free[link] = start
        self._claim_head[link] = chain[0]
        if new_total != old_total:
            self.c_contention_cycles.add(new_total - old_total)

    def _input_direction(self, flight: _Flight) -> str:
        """Input direction of a chain member at its current vertex (the
        non-fifo arbiters' classification key)."""
        index = flight.index
        vertices = self._vertices
        prev = vertices[flight.path[index - 1]] if index > 0 else None
        return classify_direction(
            prev, vertices[flight.path[index]],
            self.topology.width, self.topology.height)

    def _finish_claim(self, flight: _Flight, here: int, start: int) -> None:
        """Residency, register, and hop scheduling for one link claim.
        The message occupies the current switch buffer until it is fully
        on the wire (link start + serialisation)."""
        release = start + flight.ser
        if here >= self._n_nodes:
            self._resident_until[here][flight.mid] = release
            if release > self._switch_next_free[here]:
                self._switch_next_free[here] = release
            arrive_at = release + self.link_latency + self.switch_latency
        else:
            arrive_at = release + self.link_latency + 1
        flight.claim_event = self.sim.schedule(arrive_at, flight, LABEL_HOP)

    def _at_capacity(self, table) -> bool:
        """Whether a switch's buffer is full of *live* entries.  Pruning
        released entries only matters once the raw count reaches capacity
        (pruning only shrinks it), so the common uncontended arrival pays
        a ``len`` instead of a table scan."""
        if len(table) < self.buffer_capacity:
            return False
        now = self.sim.now
        released = [mid for mid, until in table.items() if until <= now]
        for mid in released:
            del table[mid]
        return len(table) >= self.buffer_capacity

    # -- express hops ---------------------------------------------------
    def _try_express(self, flight: _Flight) -> bool:
        """Attempt wormhole-style segment advancement from the flight's
        current vertex through the last switch before its destination.

        Eligibility (checked before any state is touched): every segment
        link free by the cycle the flight would claim it, every segment
        switch alive, unclaimed, and idle per the next-free register.
        On success the segment's links are claimed at exactly the values
        hop-by-hop departs would write, the switches are registered so
        any other traffic materialises the flight, and ONE ``net.express``
        event is scheduled at the arrival into the last switch — which
        then runs the ordinary arrive/depart, anchoring the delivery
        event's insertion cycle to match hop-by-hop mode.
        """
        path = flight.path
        links = flight.links
        base = flight.index
        last_sw = len(path) - 2          # final switch before the dst node
        now = self.sim.now
        ser = flight.ser
        link_free = self._link_free
        next_free = self._switch_next_free
        dead = self._dead
        ex_sw = self._express_switches
        ex_ln = self._express_links
        link_lat = self.link_latency
        sw_lat = self.switch_latency
        n_nodes = self._n_nodes

        t = now
        for k in range(base, last_sw):
            link = links[k]
            if link_free[link] > t or ex_ln[link] is not None:
                return False
            nxt = path[k + 1]
            if dead[nxt] or ex_sw[nxt] is not None or next_free[nxt] > now:
                return False
            t += ser + link_lat + (sw_lat if path[k] >= n_nodes else 1)

        # Commit: claim the segment.  The first hop's claim and residency
        # are exactly what a normal depart would write this dispatch; the
        # rest are pre-claims keyed back to the flight.
        msg_id = flight.mid
        times: List[int] = []
        saved: List[int] = []
        t = now
        for k in range(base, last_sw):
            here = path[k]
            link = links[k]
            release = t + ser
            if k == base:
                # A real claim, identical to what a hop-by-hop depart
                # would write this dispatch — including the claim-chain
                # record, so a later same-cycle claimant re-resolves
                # against this flight (materialising it first).
                flight.claim_cycle = t
                flight.claim_link = link
                flight.claim_start = t
                flight.claim_base = link_free[link]
                flight.claim_next = None
                self._claim_head[link] = flight
                link_free[link] = release
                if here >= n_nodes:
                    self._resident_until[here][msg_id] = release
                    if release > next_free[here]:
                        next_free[here] = release
            else:
                saved.append(link_free[link])
                link_free[link] = release
                ex_ln[link] = flight
            ex_sw[path[k + 1]] = flight
            t += ser + link_lat + (sw_lat if here >= n_nodes else 1)
            times.append(t)
        flight.exp_base = base
        flight.exp_times = times
        flight.exp_saved = saved
        self._express_flights[msg_id] = flight
        flight.exp_event = self.sim.schedule(
            times[-1], flight.express_call, LABEL_EXPRESS)
        credit = self._express_credit
        if credit < 64:
            self._express_credit = credit + 1
        self.c_express_flights.add()
        self.c_express_hops.add(len(times))
        return True

    def _express_complete(self, flight: _Flight) -> None:
        """The one express dispatch: the flight has reached the last
        switch; release the claims and run the ordinary arrival there."""
        flight.exp_event = None
        if flight.dropped or flight.epoch != self._epoch:
            return
        last_sw = flight.exp_base + len(flight.exp_times)
        self._express_clear(flight)
        flight.index = last_sw - 1
        self._arrive(flight)

    def _materialize(self, flight: _Flight) -> None:
        """Interrupt an in-express flight: restore exactly the per-hop
        state hop-by-hop scheduling would show at the current cycle, then
        fall back to one event per hop for the rest of the path.

        Tie rule (deterministic): an arrival scheduled for *this* cycle
        has not happened yet — the materialising observer dispatches
        first.  Claims follow the same rule: a segment link's pre-claim
        stands only if its depart cycle is strictly in the past;
        otherwise the saved horizon is restored so the observer contends
        against the true hop-by-hop state.
        """
        now = self.sim.now
        path = flight.path
        links = flight.links
        base = flight.exp_base
        times = flight.exp_times
        saved = flight.exp_saved
        ser = flight.ser
        last_sw = base + len(times)
        self.sim.cancel(flight.exp_event)
        link_free = self._link_free
        next_free = self._switch_next_free
        pos = base
        for j, a in enumerate(times):
            if a >= now:
                break
            pos = base + 1 + j
        for k in range(base + 1, last_sw):
            arrive_k = times[k - base - 1]
            if arrive_k < now:
                # The depart at path[k] already "ran": its residency
                # entry was popped when the flight moved on, but the
                # next-free register write survives (monotone max).
                release = arrive_k + ser
                if release > next_free[path[k]]:
                    next_free[path[k]] = release
            else:
                link_free[links[k]] = saved[k - base - 1]
        if pos > base:
            # The flight is buffered at (or serialising out of) path[pos]:
            # the one residency entry hop-by-hop mode would still hold.
            self._resident_until[path[pos]][flight.mid] = (
                times[pos - base - 1] + ser)
        self._express_clear(flight)
        flight.index = pos
        flight.no_express = True
        self._express_credit -= 32
        if self._express_credit <= 0:
            self._express_on = False
        self.c_express_interrupts.add()
        flight.claim_event = self.sim.schedule(times[pos - base], flight,
                                               LABEL_HOP)

    def _express_clear(self, flight: _Flight) -> None:
        """Drop the flight's claims and express state (idempotent)."""
        path = flight.path
        links = flight.links
        base = flight.exp_base
        last_sw = base + len(flight.exp_times)
        ex_ln = self._express_links
        ex_sw = self._express_switches
        for k in range(base + 1, last_sw):
            ex_ln[links[k]] = None
            ex_sw[path[k]] = None
        ex_sw[path[last_sw]] = None
        self._express_flights.pop(flight.mid, None)
        flight.exp_times = None
        flight.exp_saved = None
        flight.exp_event = None

    # -- arrival --------------------------------------------------------
    def _arrive(self, flight: _Flight) -> None:
        if flight.dropped or flight.epoch != self._epoch:
            return
        index = flight.index = flight.index + 1
        path = flight.path
        n_nodes = self._n_nodes
        # Leave, finalised: the entry's release time already passed (it
        # was start + ser, strictly before this arrival).
        prev = path[index - 1]
        if prev >= n_nodes:
            self._resident_until[prev].pop(flight.mid, None)
        vertex = path[index]
        if vertex >= n_nodes:
            if self._express_flights:
                # Arrival at a switch an express flight claimed: the
                # claimant materialises first (observer-first tie rule)
                # so the occupancy this flight observes is hop-by-hop's.
                other = self._express_switches[vertex]
                if other is not None:
                    self._materialize(other)
            if self._dead[vertex]:
                self._lose(flight, f"dead switch {self._vertices[vertex][1]}")
                return
            if self._drop_hooks:
                public = self._vertices[vertex]
                for hook in self._drop_hooks:
                    if hook(flight.msg, public):
                        self._lose(flight, f"fault injection at {public[1]}")
                        return
            table = self._resident_until[vertex]
            if (len(table) >= self.buffer_capacity
                    and self._at_capacity(table)):
                # Backpressure: retry entering the switch shortly.
                flight.index -= 1
                self.c_buffer_stalls.add()
                self.sim.schedule_after(
                    4, lambda f=flight: self._arrive_retry(f), LABEL_RETRY
                )
                return
            # Residency is recorded in _depart, which runs within this
            # same dispatch and knows the buffer-release time.
            self._depart(flight)
        else:
            # Destination endpoint.
            del self._in_flight[flight.mid]
            self._enqueue_delivery(flight.msg)

    def _arrive_retry(self, flight: _Flight) -> None:
        if flight.dropped or flight.epoch != self._epoch:
            return
        self._arrive(flight)

    def _enqueue_delivery(self, msg: Message) -> None:
        """Delivery slotting: endpoint handlers run once per cycle, at the
        end of the cycle, in ``msg_id`` order.

        Same-cycle delivery order would otherwise be event-insertion order,
        which is a history of *when* each hop event entered the kernel heap
        — exactly the thing express advancement changes.  Sorting each
        cycle's deliveries by a key the modes share makes the order (and
        thus every downstream dispatch) independent of how the flights got
        here, so express and hop-by-hop runs stay bit-identical.
        """
        now = self.sim.now
        if self._deliver_cycle != now:
            self._deliver_cycle = now
            self.sim.schedule(now, self._flush_deliveries, LABEL_DELIVER)
        self._deliver_ready.append(msg)

    def _flush_deliveries(self) -> None:
        ready = self._deliver_ready
        if not ready:
            return
        self._deliver_ready = []
        if len(ready) > 1:
            self.arbiter.order_deliveries(ready)
        for msg in ready:
            self._deliver(msg)

    def _deliver(self, msg: Message) -> None:
        self.c_messages_delivered.add()
        if self._arb_note is not None:
            self._arb_note(msg)
        # A misrouting fault sends the message to the wrong endpoint,
        # where the paper's illegal-message detection catches it.
        target = msg.payload.get("misrouted_to", msg.dst)
        handler = self._endpoints.get(target)
        if handler is None:
            raise RuntimeError(f"no endpoint attached for node {target}")
        handler(msg)

    def drop_in_flight(self, msg: Message, reason: str) -> bool:
        """Drop a message that is still traversing the network (the
        deferred-verdict path of :class:`~repro.interconnect.faults.
        PeriodicArmedFault`: the victim is chosen at end of cycle, after
        its switch entry already continued).  Any link claim the flight
        made this cycle stands — the bits were on the wire — and its
        pending events are squelched by the ``dropped`` flag.  Returns
        False if the message already left the network."""
        flight = self._in_flight.get(msg.msg_id)
        if flight is None or flight.dropped:
            return False
        self._lose(flight, reason)
        return True

    def _lose(self, flight: _Flight, reason: str) -> None:
        if flight.exp_times is not None:
            self.sim.cancel(flight.exp_event)
            self._express_clear(flight)
        flight.dropped = True
        self._in_flight.pop(flight.mid, None)
        self.c_messages_lost.add()
        trace = self.sim.trace
        if trace is not None:
            msg = flight.msg
            trace.emit(self.sim.now, "net.lost", msg.dst,
                       msg_kind=msg.kind.name, src=msg.src, dst=msg.dst,
                       reason=reason)

    # ------------------------------------------------------------------
    # Faults and recovery support
    # ------------------------------------------------------------------
    def kill_half_switch(self, half: HalfSwitchId) -> int:
        """Hard fault: the half-switch dies and its buffered messages are
        irretrievably lost (paper Table 1).  Returns how many died with it.
        Routing is NOT recomputed here — that is the recovery-time
        reconfiguration step (:meth:`reconfigure`).  Raises ValueError
        for a half-switch outside the torus."""
        vertex = self.topology.switch_id(half)
        claimant = self._express_switches[vertex]
        if claimant is not None:
            # Pin the in-express flight back to its true position first;
            # if it is buffered here it dies with the switch below.
            self._materialize(claimant)
        now = self.sim.now
        table = self._resident_until[vertex]
        self._resident_until[vertex] = {}
        victims = [mid for mid, until in table.items() if until > now]
        for msg_id in victims:
            flight = self._in_flight.get(msg_id)
            if flight is not None:
                self._lose(flight, f"killed with switch {half}")
        self.topology.kill_half_switch(half)
        return len(victims)

    def reconfigure(self) -> None:
        """Recompute routes around dead elements (post-recovery step)."""
        self.routing.recompute()

    def drain(self) -> int:
        """Discard every in-flight message (recovery step 1).

        All state related to in-progress transactions is unvalidated and
        logically after the recovery point, so it is simply thrown away.
        Already-scheduled hop events are left in the queue: they skip
        their stale-epoch flights when they fire.
        """
        count = len(self._in_flight)
        self._epoch += 1
        self._in_flight.clear()
        self._reset_tables()
        self._express_flights.clear()
        self._deliver_ready.clear()
        self._deliver_cycle = -1
        self.arbiter.reset()
        return count
