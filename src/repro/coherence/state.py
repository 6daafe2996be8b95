"""Shared coherence-state definitions."""

from __future__ import annotations

from typing import Any, Callable, Optional, Set


def schedule_in_epoch(controller: Any, delay: int, action: Callable[[], Any],
                      label: str) -> None:
    """Run ``action`` ``delay`` cycles from now on ``controller.sim``,
    unless the controller recovers first.

    Recovery bumps ``controller.epoch``, so an action scheduled before it
    does nothing when it fires.  An action that sends a message builds it
    when it fires: message ids are allocated at construction, and their
    order settles same-cycle link claims and deliveries.
    """
    epoch = controller.epoch
    controller.sim.schedule_after(
        delay, lambda: epoch == controller.epoch and action(), label)


class ProtocolError(RuntimeError):
    """An impossible protocol event — indicates a simulator bug, not a
    modelled hardware fault."""


class CacheState:
    """Stable cache states.  Transient states live in MSHRs.

    The full lattice is MOESI; which states a run actually uses is the
    protocol's decision (:mod:`repro.coherence.protocol`).  ``EXCLUSIVE``
    only ever appears under ``mesi``/``moesi`` — the ``mosi`` oracle never
    creates it, so the widened ``OWNER_STATES``/``VALID_STATES`` unions
    answer membership tests identically to the pre-protocol frozensets on
    every default run.
    """

    MODIFIED = "M"    # exclusive, dirty, owner
    EXCLUSIVE = "E"   # exclusive, clean, owner (silent M upgrade allowed)
    OWNED = "O"      # shared, dirty, owner (serves other caches' reads)
    SHARED = "S"     # clean(-ish) copy; some owner exists elsewhere
    INVALID = "I"    # not present (represented by absence from the cache)

    OWNER_STATES = frozenset(("M", "E", "O"))
    VALID_STATES = frozenset(("M", "E", "O", "S"))


# Sentinel for "memory owns the block" in directory entries.
MEMORY_OWNER: Optional[int] = None


class CacheBlock:
    """One resident cache line.

    ``cn`` is the SafetyNet checkpoint number: the earliest checkpoint this
    block's current value/ownership belongs to.  ``None`` means the block
    belongs to the recovery point and every later checkpoint (paper §3.3).
    """

    __slots__ = ("addr", "state", "data", "cn", "lru")

    def __init__(
        self,
        addr: int,
        state: str,
        data: int,
        cn: Optional[int] = None,
        lru: int = 0,
    ) -> None:
        self.addr = addr
        self.state = state
        self.data = data
        self.cn = cn
        self.lru = lru

    def is_owner(self) -> bool:
        return self.state in CacheState.OWNER_STATES

    def __repr__(self) -> str:
        return f"Block({self.addr:#x} {self.state} data={self.data} cn={self.cn})"


class DirEntry:
    """Directory record for one block at its home node."""

    __slots__ = ("owner", "sharers")

    def __init__(self, owner: Optional[int] = MEMORY_OWNER, sharers: Optional[Set[int]] = None) -> None:
        self.owner = owner
        self.sharers: Set[int] = set(sharers) if sharers else set()

    def snapshot(self) -> tuple:
        return (self.owner, frozenset(self.sharers))

    def __repr__(self) -> str:
        who = "MEM" if self.owner is None else f"P{self.owner}"
        return f"Dir(owner={who}, sharers={sorted(self.sharers)})"
