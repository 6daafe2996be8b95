"""Deterministic discrete-event simulation kernel.

The whole reproduction runs on a single integer cycle clock (one cycle is
one processor clock at the paper's 1 GHz target, i.e. 1 ns).  Components
schedule callbacks at absolute cycles; ties are broken by insertion order so
that every run with the same seeds is bit-for-bit reproducible.

The kernel is a binary heap of ``(when, seq, event)`` tuples: O(log n)
schedule/pop, no assumptions about the event mix.  A calendar-queue core
(per-cycle buckets, a zero-delay lane, event recycling) was tried
against it on the canonical end-to-end benchmark and was a wash — ahead
on the network-bound 8x8 run, behind on the CPU-bound 2x2 one, with
identical dispatch counts and queue depths — so the simpler core is the
only one.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Callable, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, etc.)."""


class Event:
    """A pending callback.

    The heap itself stores bare ``(when, seq, event)`` tuples so that
    heap sifting compares machine integers instead of calling back into
    a rich-comparison method — the event loop is the hottest path in the
    whole simulator (see ``benchmarks/test_kernel_hotpath.py``).  ``seq``
    is an insertion counter: it breaks same-cycle ties deterministically
    and guarantees the tuple comparison never reaches the (incomparable)
    event object.
    """

    __slots__ = ("when", "seq", "callback", "label", "cancelled")

    def __init__(self, when: int, seq: int, callback: Callable[[], None],
                 label: str = "") -> None:
        self.when = when
        self.seq = seq
        self.callback = callback
        self.label = label
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing (it stays in the queue lazily)."""
        self.cancelled = True

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return f"Event(when={self.when}, seq={self.seq}, label={self.label!r}{state})"


_QueueEntry = Tuple[int, int, Event]


class Simulator:
    """Event queue plus the global cycle clock.

    Usage::

        sim = Simulator()
        sim.schedule(10, lambda: print("at cycle 10"))
        sim.run(limit=100)
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._queue: List[_QueueEntry] = []
        self._seq: int = 0
        self._events_dispatched: int = 0
        self._stopped: bool = False
        self._stop_reason: Optional[str] = None
        #: High-water mark of :meth:`pending` (cancelled entries included):
        #: how deep the event queue ever got.  Harvested into campaign
        #: telemetry (``RunRecord.telemetry["peak_pending_events"]``).
        self.peak_pending: int = 0
        #: Optional dispatch profiler: any object with a
        #: ``record(label, seconds)`` method (see
        #: :class:`repro.sim.profile.DispatchProfile`).  When set,
        #: :meth:`run` times every callback and attributes its exclusive
        #: wall-clock to the event's label.  None (the default) keeps the
        #: run loop untouched — tracing costs nothing unless asked for.
        self.tracer = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, when: int, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` at absolute cycle ``when``."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule event '{label}' at {when}, now is {self.now}"
            )
        event = Event(int(when), self._seq, callback, label)
        self._seq += 1
        queue = self._queue
        heapq.heappush(queue, (event.when, event.seq, event))
        if len(queue) > self.peak_pending:
            self.peak_pending = len(queue)
        return event

    def schedule_after(self, delay: int, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` ``delay`` cycles from now (delay >= 0)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for event '{label}'")
        return self.schedule(self.now + delay, callback, label)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def stop(self, reason: str = "") -> None:
        """Halt the run loop after the current event returns."""
        self._stopped = True
        self._stop_reason = reason or None

    @property
    def stop_reason(self) -> Optional[str]:
        return self._stop_reason

    @property
    def events_dispatched(self) -> int:
        return self._events_dispatched

    def pending(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return len(self._queue)

    def run(self, limit: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Dispatch events until the queue drains, ``limit`` cycles pass,
        ``max_events`` events fire, or :meth:`stop` is called.

        Returns the cycle at which the run loop stopped.
        """
        if self.tracer is not None:
            return self._run_traced(limit, max_events)
        self._stopped = False
        self._stop_reason = None
        dispatched_here = 0
        queue = self._queue
        heappop = heapq.heappop
        while queue and not self._stopped:
            when = queue[0][0]
            if limit is not None and when > limit:
                self.now = limit
                break
            event = heappop(queue)[2]
            if event.cancelled:
                continue
            if when < self.now:
                raise SimulationError("event queue went backwards in time")
            self.now = when
            event.callback()
            self._events_dispatched += 1
            dispatched_here += 1
            if max_events is not None and dispatched_here >= max_events:
                self._stop_reason = "max_events"
                break
        # Queue drained before the limit: fast-forward the clock ("nothing
        # can happen until then").  NOT when stop() fired — a stopped run
        # halts at the current cycle, whether or not later events remained
        # (deadline tables legitimately leave the queue empty at the stop).
        if (limit is not None and not self._queue and not self._stopped
                and self.now < limit):
            self.now = limit
        return self.now

    def _run_traced(self, limit: Optional[int], max_events: Optional[int]) -> int:
        """The :meth:`run` loop with per-dispatch label timing.

        A separate loop so the common (untraced) path pays nothing; kept
        line-for-line parallel with :meth:`run` — same stop conditions,
        same cancelled-event handling, same return value.
        """
        record = self.tracer.record
        self._stopped = False
        self._stop_reason = None
        dispatched_here = 0
        queue = self._queue
        heappop = heapq.heappop
        while queue and not self._stopped:
            when = queue[0][0]
            if limit is not None and when > limit:
                self.now = limit
                break
            event = heappop(queue)[2]
            if event.cancelled:
                continue
            if when < self.now:
                raise SimulationError("event queue went backwards in time")
            self.now = when
            started = perf_counter()
            event.callback()
            record(event.label, perf_counter() - started)
            self._events_dispatched += 1
            dispatched_here += 1
            if max_events is not None and dispatched_here >= max_events:
                self._stop_reason = "max_events"
                break
        if (limit is not None and not self._queue and not self._stopped
                and self.now < limit):
            self.now = limit
        return self.now

    def step(self) -> bool:
        """Dispatch exactly one (non-cancelled) event.  Returns False when
        the queue is empty.

        Same dispatch semantics as :meth:`run` — the backwards-time guard
        and the optional tracer timing apply here too, so stepping through
        a run observes exactly what running it would.
        """
        while self._queue:
            event = heapq.heappop(self._queue)[2]
            if event.cancelled:
                continue
            if event.when < self.now:
                raise SimulationError("event queue went backwards in time")
            self.now = event.when
            if self.tracer is not None:
                started = perf_counter()
                event.callback()
                self.tracer.record(event.label, perf_counter() - started)
            else:
                event.callback()
            self._events_dispatched += 1
            return True
        return False

    def drain_matching(self, predicate: Callable[[Event], bool]) -> int:
        """Cancel every queued event matching ``predicate``.

        Used by recovery-style bulk discards of in-flight network/protocol
        events.  Returns the number of events newly cancelled.

        Cancelled events normally stay queued (lazily skipped on pop), but
        a caller that drains repeatedly — one drain per recovery on a
        fault-heavy run — would otherwise grow the queue without bound
        with tuples that never fire before the far-future deadlines ahead
        of them.  When more than half the queue is dead after a drain, the
        queue is compacted in place (drop cancelled entries, re-heapify):
        O(n), against a scan that was O(n) already.
        """
        cancelled = 0
        dead = 0
        for _, _, event in self._queue:
            if event.cancelled:
                dead += 1
            elif predicate(event):
                event.cancel()
                cancelled += 1
        if (cancelled + dead) * 2 > len(self._queue):
            self._queue = [entry for entry in self._queue
                           if not entry[2].cancelled]
            heapq.heapify(self._queue)
        return cancelled


class Ticker:
    """A repeating event helper (e.g. the checkpoint clock).

    The callback receives the tick index.  Re-arms itself unless stopped.
    """

    def __init__(
        self,
        sim: Simulator,
        period: int,
        callback: Callable[[int], None],
        *,
        phase: int = 0,
        label: str = "ticker",
    ) -> None:
        if period <= 0:
            raise SimulationError(f"ticker period must be positive, got {period}")
        self._sim = sim
        self._period = period
        self._callback = callback
        self._label = label
        self._tick = 0
        self._running = False
        self._event: Optional[Event] = None
        self._phase = phase

    @property
    def period(self) -> int:
        return self._period

    @property
    def ticks(self) -> int:
        return self._tick

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        first = self._sim.now + self._phase
        if self._phase == 0:
            first = self._sim.now + self._period
        self._event = self._sim.schedule(first, self._fire, self._label)

    def stop(self) -> None:
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        if not self._running:
            return
        index = self._tick
        self._tick += 1
        self._callback(index)
        if self._running:
            self._event = self._sim.schedule_after(self._period, self._fire, self._label)


def quiesce(sim: Simulator, limit: int, check: Callable[[], bool], step: int = 1000) -> bool:
    """Run the simulator until ``check()`` is true or ``limit`` is reached.

    Polls ``check`` every ``step`` cycles.  Returns True if the condition
    held before the limit.
    """
    while sim.now < limit:
        if check():
            return True
        sim.run(limit=min(limit, sim.now + step))
        if not sim.pending() and not check():
            return check()
    return check()
