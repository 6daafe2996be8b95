"""Deterministic discrete-event simulation kernel.

The whole reproduction runs on a single integer cycle clock (one cycle is
one processor clock at the paper's 1 GHz target, i.e. 1 ns).  Components
schedule callbacks at absolute cycles; ties are broken by insertion order so
that every run with the same seeds is bit-for-bit reproducible.

The kernel is a binary heap of plain ``(when, seq, callback, label)``
tuples: O(log n) schedule/pop, no assumptions about the event mix.
``seq`` is an insertion counter, so heap sifting compares two machine
integers and never reaches the callback.  :meth:`Simulator.schedule`
returns the entry itself as an opaque handle, good only for
:meth:`Simulator.cancel`; a cancelled entry stays queued until it is
popped, and its ``seq`` sits in a set the dispatch loop consults only
while the set is non-empty.  There is no per-event object, so
scheduling allocates one tuple and dispatching reads no attributes.

A calendar-queue core (per-cycle buckets, a zero-delay lane, event
recycling) was tried against the heap on the canonical end-to-end
benchmark and was a wash — ahead on the network-bound 8x8 run, behind on
the CPU-bound 2x2 one, with identical dispatch counts and queue depths —
so the simpler core is the only one.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter
from typing import Callable, List, Optional, Set, Tuple


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, etc.)."""


#: A queued event, ``(when, seq, callback, label)``.  Private to the
#: kernel: callers hold entries only as handles for :meth:`Simulator.cancel`.
_Entry = Tuple[int, int, Callable[[], None], str]


class Simulator:
    """Event queue plus the global cycle clock.

    Usage::

        sim = Simulator()
        sim.schedule(10, lambda: print("at cycle 10"))
        sim.run(limit=100)
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._queue: List[_Entry] = []
        #: ``seq`` of every queued entry that was cancelled; an entry
        #: leaves the set when it is popped.
        self._cancelled: Set[int] = set()
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
    def schedule(self, when: int, callback: Callable[[], None],
                 label: str = "") -> _Entry:
        """Schedule ``callback`` at absolute cycle ``when`` (an ``int``,
        not before now).  Returns a handle for :meth:`cancel`."""
        if when < self.now or type(when) is not int:
            if when < self.now:
                raise SimulationError(
                    f"cannot schedule event '{label}' at {when}, "
                    f"now is {self.now}")
            raise SimulationError(
                f"cannot schedule event '{label}' at non-integer "
                f"cycle {when!r}")
        seq = self._seq
        self._seq = seq + 1
        entry = (when, seq, callback, label)
        queue = self._queue
        heappush(queue, entry)
        if len(queue) > self.peak_pending:
            self.peak_pending = len(queue)
        return entry

    def schedule_after(self, delay: int, callback: Callable[[], None],
                       label: str = "") -> _Entry:
        """Schedule ``callback`` ``delay`` cycles from now (delay >= 0)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for event '{label}'")
        return self.schedule(self.now + delay, callback, label)

    def cancel(self, handle: _Entry) -> None:
        """Stop a scheduled event from firing.

        A no-op for a handle that already fired or was already
        cancelled.  The entry stays queued — :meth:`pending` and
        :attr:`peak_pending` count it — until the dispatch loop pops and
        skips it.  Cancels are rare (a few per thousand dispatches on a
        full-machine run), so the queue scan that tells a live handle
        from a spent one costs nothing that shows.
        """
        seq = handle[1]
        if seq not in self._cancelled and handle in self._queue:
            self._cancelled.add(seq)

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

    def run(self, limit: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        """Dispatch events until the queue drains, ``limit`` cycles pass,
        ``max_events`` events fire, or :meth:`stop` is called.

        A ``limit`` before now dispatches nothing and leaves the clock
        alone, as does ``max_events=0``; a negative ``max_events`` raises
        :class:`SimulationError`.  Returns the cycle at which the run
        loop stopped.
        """
        if max_events is not None and max_events < 0:
            raise SimulationError(f"negative max_events {max_events}")
        self._stopped = False
        self._stop_reason = None
        if max_events == 0 or (limit is not None and limit < self.now):
            return self.now
        if self.tracer is not None:
            return self._run_traced(limit, max_events)
        queue = self._queue
        cancelled = self._cancelled
        budget = -1 if max_events is None else max_events
        dispatched = 0
        now = self.now
        try:
            while queue and not self._stopped:
                when = queue[0][0]
                if limit is not None and when > limit:
                    self.now = limit
                    break
                _, seq, callback, _ = heappop(queue)
                if cancelled and seq in cancelled:
                    cancelled.discard(seq)
                    continue
                if when < now:
                    raise SimulationError("event queue went backwards in time")
                self.now = now = when
                callback()
                dispatched += 1
                if dispatched == budget:
                    self._stop_reason = "max_events"
                    break
        finally:
            self._events_dispatched += dispatched
        # Queue drained before the limit: fast-forward the clock ("nothing
        # can happen until then").  NOT when stop() fired — a stopped run
        # halts at the current cycle, whether or not later events remained
        # (deadline tables legitimately leave the queue empty at the stop).
        if (limit is not None and not queue and not self._stopped
                and self.now < limit):
            self.now = limit
        return self.now

    def _run_traced(self, limit: Optional[int],
                    max_events: Optional[int]) -> int:
        """The :meth:`run` loop with per-dispatch label timing.

        A separate loop so the common (untraced) path pays nothing; kept
        line-for-line parallel with :meth:`run` — same stop conditions,
        same cancelled-entry handling, same return value.
        """
        record = self.tracer.record
        queue = self._queue
        cancelled = self._cancelled
        budget = -1 if max_events is None else max_events
        dispatched = 0
        now = self.now
        try:
            while queue and not self._stopped:
                when = queue[0][0]
                if limit is not None and when > limit:
                    self.now = limit
                    break
                _, seq, callback, label = heappop(queue)
                if cancelled and seq in cancelled:
                    cancelled.discard(seq)
                    continue
                if when < now:
                    raise SimulationError("event queue went backwards in time")
                self.now = now = when
                started = perf_counter()
                callback()
                record(label, perf_counter() - started)
                dispatched += 1
                if dispatched == budget:
                    self._stop_reason = "max_events"
                    break
        finally:
            self._events_dispatched += dispatched
        if (limit is not None and not queue and not self._stopped
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
        queue = self._queue
        cancelled = self._cancelled
        while queue:
            when, seq, callback, label = heappop(queue)
            if seq in cancelled:
                cancelled.discard(seq)
                continue
            if when < self.now:
                raise SimulationError("event queue went backwards in time")
            self.now = when
            if self.tracer is not None:
                started = perf_counter()
                callback()
                self.tracer.record(label, perf_counter() - started)
            else:
                callback()
            self._events_dispatched += 1
            return True
        return False
