"""Checkpoint Log Buffers (paper §3.3).

A CLB incrementally checkpoints memory and coherence state: whenever an
update-action (store overwrite or transfer of ownership) might have to be
undone, the old state is appended to the log, tagged with the checkpoint
interval the action belongs to.  This module states SafetyNet's two
logging rules once for every controller in the sphere of recovery:
:func:`needs_log` is the once-per-block-per-interval filter (read against
the block's checkpoint number, which each controller keeps), and
:meth:`CheckpointLogBuffer.rollback` removes the entries a recovery must
undo, newest first.  The controllers decide what an entry holds and how
to apply it.

Indexing convention (matches the paper's Fig. 4):

* an entry tagged ``j`` undoes an action performed while the component's
  CCN was ``j`` (for three-hop transfers, the *owner's* CCN — the point of
  atomicity — which the home learns via FINAL_ACK and applies by retagging);
* recovery to checkpoint ``r`` unrolls every entry tagged ``>= r`` in
  reverse order;
* advancing the recovery point to ``r`` frees every entry tagged ``< r``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


def needs_log(cn: Optional[int], tag: int) -> bool:
    """The once-per-interval rule (paper §3.3, Fig. 4): an update-action
    in interval ``tag`` logs the block's old state unless the block's
    checkpoint number ``cn`` shows it was already logged in this interval
    (a null ``cn`` — the block belongs to the recovery point — always
    logs)."""
    return cn is None or tag >= cn


class LogEntry:
    """One undo record: the pre-action state of one block."""

    __slots__ = ("addr", "payload", "tag")

    def __init__(self, addr: int, payload: Any, tag: int) -> None:
        self.addr = addr
        self.payload = payload
        self.tag = tag

    def __repr__(self) -> str:
        return f"LogEntry(addr={self.addr:#x}, tag={self.tag})"


class ClbFullError(RuntimeError):
    """Raised on append to a full CLB; callers must throttle or NACK instead
    of letting this escape (the paper sizes CLBs for performance, not
    correctness)."""


class CheckpointLogBuffer:
    """A bounded undo log segmented by checkpoint interval."""

    def __init__(self, capacity_entries: int, name: str = "clb") -> None:
        if capacity_entries < 1:
            raise ValueError("CLB needs capacity for at least one entry")
        self.capacity = capacity_entries
        self.name = name
        self._segments: Dict[int, List[LogEntry]] = {}
        self._count = 0
        # statistics
        self.peak_occupancy = 0
        self.total_appends = 0
        self.entries_per_interval: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return self._count

    @property
    def free_entries(self) -> int:
        return self.capacity - self._count

    def is_full(self) -> bool:
        return self._count >= self.capacity

    def append(self, tag: int, addr: int, payload: Any) -> LogEntry:
        """Log the pre-action state of ``addr`` for interval ``tag``."""
        if self._count >= self.capacity:
            raise ClbFullError(f"{self.name} full at {self.capacity} entries")
        entry = LogEntry(addr, payload, tag)
        self._segments.setdefault(tag, []).append(entry)
        self._count += 1
        self.total_appends += 1
        self.entries_per_interval[tag] = self.entries_per_interval.get(tag, 0) + 1
        if self._count > self.peak_occupancy:
            self.peak_occupancy = self._count
        return entry

    def retag(self, entry: LogEntry, new_tag: int) -> None:
        """Move an entry to a later interval.

        Used by the home when a FINAL_ACK reveals a three-hop transaction's
        true point of atomicity (paper §3.7, third protocol change).  Tags
        may only move forward — atomicity is never earlier than the home's
        processing interval (causality of logical time).
        """
        if new_tag == entry.tag:
            return
        if new_tag < entry.tag:
            raise ValueError(
                f"retag must move forward ({entry.tag} -> {new_tag}); "
                "atomicity cannot precede the forward"
            )
        self._segments[entry.tag].remove(entry)
        if not self._segments[entry.tag]:
            del self._segments[entry.tag]
        entry.tag = new_tag
        self._segments.setdefault(new_tag, []).append(entry)

    # ------------------------------------------------------------------
    # Validation (deallocate) and recovery (unroll)
    # ------------------------------------------------------------------
    def free_below(self, recovery_point: int) -> int:
        """Discard entries for validated intervals (tag < recovery point)."""
        freed = 0
        for tag in [t for t in self._segments if t < recovery_point]:
            freed += len(self._segments[tag])
            del self._segments[tag]
        self._count -= freed
        return freed

    def unroll_from(self, recovery_point: int) -> Iterator[LogEntry]:
        """Yield entries tagged ``>= recovery_point``, newest first.

        Within an interval, entries come back in reverse append order, and
        intervals are visited newest-to-oldest, so applying each yielded
        entry restores the state at checkpoint ``recovery_point``.
        """
        for tag in sorted(self._segments, reverse=True):
            if tag < recovery_point:
                break
            for entry in reversed(self._segments[tag]):
                yield entry

    def rollback(self, recovery_point: int) -> List[LogEntry]:
        """Remove and return the entries tagged ``>= recovery_point`` in
        :meth:`unroll_from` order: applying them in turn restores the
        state at checkpoint ``recovery_point``."""
        entries = list(self.unroll_from(recovery_point))
        for tag in [t for t in self._segments if t >= recovery_point]:
            del self._segments[tag]
        self._count -= len(entries)
        return entries

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def segment_sizes(self) -> Dict[int, int]:
        return {tag: len(entries) for tag, entries in self._segments.items()}

    def entries_created_in(self, tag: int) -> int:
        """Total entries ever created for interval ``tag`` (survives frees)."""
        return self.entries_per_interval.get(tag, 0)

    def __len__(self) -> int:
        return self._count
