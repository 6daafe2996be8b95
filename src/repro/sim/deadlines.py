"""Deadline tables: many timeouts, one kernel event.

Fault-detection timeouts have a peculiar cost profile: they are armed on
every request, they essentially never fire (they exist to catch *lost*
messages), and yet the naive implementation — schedule one kernel event
per request — makes the event heap churn through a dead callback for
every transaction in the run.  Profiling a busy run shows ``cache.timeout``
alone at ~7% of all kernel dispatches (see ``repro profile``;
``benchmarks/test_cpu_hotpath.py`` holds the table's share under 1%).

:class:`DeadlineTable` replaces that pattern with a per-controller
registry: deadlines live in a plain dict keyed by the caller's request id,
and exactly one kernel event is armed at the earliest outstanding
deadline.  When the sweep event fires it runs every expired entry's
callback (in arm order — deterministic), then re-arms itself at the new
minimum.  Arming is a dict store, cancellation is a dict delete; the heap
only ever sees the sweeps.

An entry armed for cycle ``d`` has its callback run at exactly cycle
``d``: the sweep event is always scheduled at the minimum outstanding
deadline, which is never later than any entry.  Within that cycle the
sweep keeps its own kernel-sequence position, so a completion landing at
exactly ``issue + request_timeout`` is a same-cycle tie that sequence
order decides.  The requestor and the optional home-side timeouts both
use this table; the committed goldens (``tests/data/protocol_golden.json``)
pin runs in which each fires.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.sim.kernel import Simulator


class DeadlineTable:
    """A set of (key -> deadline, callback) swept by a single event.

    Typical use — the cache controller's request timeouts::

        table = DeadlineTable(sim, "cache.timeout_sweep")
        table.arm(txn_id, sim.now + timeout, lambda: check(txn_id))
        ...
        table.cancel(txn_id)          # transaction completed cleanly

    Re-arming an existing key replaces its deadline (a NACK retry pushes
    the same transaction's deadline out).  Callbacks may arm and cancel
    entries freely; entries armed during a sweep for the current cycle
    run in a follow-up sweep the same cycle.
    """

    __slots__ = ("sim", "label", "_entries", "_handle", "_event_when")

    def __init__(self, sim: Simulator, label: str = "deadline.sweep") -> None:
        self.sim = sim
        self.label = label
        self._entries: Dict[Any, Tuple[int, Callable[[], None]]] = {}
        # The sweep's kernel handle while one is queued.
        self._handle: Optional[tuple] = None
        self._event_when: int = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Any) -> bool:
        return key in self._entries

    def next_deadline(self) -> Optional[int]:
        """Earliest outstanding deadline (None when empty)."""
        if not self._entries:
            return None
        return min(d for d, _ in self._entries.values())

    # ------------------------------------------------------------------
    def arm(self, key: Any, deadline: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` at ``deadline`` unless cancelled/replaced first."""
        self._entries[key] = (deadline, callback)
        if self._handle is None or deadline < self._event_when:
            self._schedule(deadline)

    def cancel(self, key: Any) -> bool:
        """Forget ``key``; returns whether it was armed.

        The sweep event is deliberately left alone: it fires at the old
        minimum, finds nothing expired, and re-arms (or disarms) itself.
        Cancelling it here would leave a dead entry in the kernel heap —
        exactly the churn this table exists to avoid.
        """
        return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        """Drop every entry (recovery: pre-fault deadlines are moot)."""
        self._entries.clear()

    # ------------------------------------------------------------------
    def _schedule(self, when: int) -> None:
        if self._handle is not None:
            self.sim.cancel(self._handle)
        self._event_when = when
        self._handle = self.sim.schedule(when, self._sweep, self.label)

    def _sweep(self) -> None:
        self._handle = None
        now = self.sim.now
        entries = self._entries
        expired = [key for key, (d, _) in entries.items() if d <= now]
        for key in expired:
            entry = entries.pop(key, None)
            if entry is not None:  # a callback may cancel a later sibling
                entry[1]()
        if entries:
            # Re-arm at the new minimum (callbacks may have armed entries
            # themselves; _schedule cancels any event they created so at
            # most one sweep stays live).
            self._schedule(min(d for d, _ in entries.values()))
