"""Pluggable coherence protocols (MOSI / MESI / MOESI).

The paper layers SafetyNet on "a typical MOSI directory protocol", but
its availability claims should be protocol-robust — checkpoint/rollback
cost is tightly coupled to the memory system underneath (Kulkarni et
al., PAPERS.md).  This module extracts the protocol decisions that were
hard-wired into :class:`~repro.coherence.cache.CacheController` and
:class:`~repro.coherence.directory.MemoryController` into a frozen
:class:`CoherenceProtocol` object behind a registry, following the
pattern that already worked for ``BACKENDS``:

* ``mosi`` — the original protocol and the bit-identity oracle: a run
  with ``protocol=mosi`` must be byte-identical to the pre-refactor
  code (enforced by tests/test_protocols.py against committed goldens).
* ``mesi`` — adds the E state: exclusive-clean fill when the directory
  has no sharers, silent E→M upgrade with no network transaction, and
  clean eviction without a data writeback (PUTE).  There is no O state,
  so a remote read at an owner returns ownership to the home (COPYBACK).
* ``moesi`` — E grafted onto the existing O machinery: a remote read
  downgrades E→O exactly like M→O, so no copyback is needed.

Checkpoint participants (per-block CN tagging, CLB logging on stores
and ownership transfers, validation readiness) are protocol-agnostic:
every protocol runs the same once-per-interval logging rule, so
recovery works identically under all three.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

from repro.coherence.state import CacheState


class _NullCounter:
    """Stand-in for the ``coh.*`` transition counters under ``mosi``.

    The stats snapshot includes every *registered* counter, zero or not,
    so registering the E-state counters unconditionally would change the
    default run's counter set and break bit-identity with the seed.
    Protocols without an E state get this no-op instead.
    """

    __slots__ = ()
    value = 0

    def add(self, n: int = 1) -> None:
        pass


NULL_COUNTER = _NullCounter()


@dataclass(frozen=True)
class CoherenceProtocol:
    """The transition decisions one protocol makes differently.

    Everything else — request/response choreography, NACK/retry, the
    SafetyNet logging rule — is shared machinery in the controllers.
    """

    name: str
    #: Whether the E (exclusive-clean) state exists at all.  Gates the
    #: directory's exclusive-clean fill and the ``coh.*`` counters.
    has_exclusive: bool
    #: Cache states a store may upgrade to M silently (no network
    #: transaction).  ``frozenset({"E"})`` for mesi/moesi, empty for mosi.
    silent_upgrade_states: FrozenSet[str]
    #: Directory grants "E" on a read miss when memory owns the block and
    #: nobody shares it.
    exclusive_clean_fill: bool
    #: A remote read at an owner relinquishes ownership to the home
    #: (MESI: no O state, so the owner drops to S and sends COPYBACK).
    #: False means the owner keeps ownership and downgrades M/E → O.
    copyback_on_read: bool

    def fill_state(self, grant: str) -> str:
        """Stable state a data grant installs ("M"/"E"/"S")."""
        if grant == "M":
            return CacheState.MODIFIED
        if grant == "E":
            return CacheState.EXCLUSIVE
        return CacheState.SHARED


MOSI = CoherenceProtocol(
    name="mosi",
    has_exclusive=False,
    silent_upgrade_states=frozenset(),
    exclusive_clean_fill=False,
    copyback_on_read=False,
)

MESI = CoherenceProtocol(
    name="mesi",
    has_exclusive=True,
    silent_upgrade_states=frozenset((CacheState.EXCLUSIVE,)),
    exclusive_clean_fill=True,
    copyback_on_read=True,
)

MOESI = CoherenceProtocol(
    name="moesi",
    has_exclusive=True,
    silent_upgrade_states=frozenset((CacheState.EXCLUSIVE,)),
    exclusive_clean_fill=True,
    copyback_on_read=False,
)

PROTOCOLS = {p.name: p for p in (MOSI, MESI, MOESI)}
PROTOCOL_NAMES = tuple(sorted(PROTOCOLS))


def resolve_protocol(name: str) -> CoherenceProtocol:
    """Look up a protocol by registry name."""
    try:
        return PROTOCOLS[name]
    except KeyError:
        raise ValueError(
            f"unknown protocol {name!r}; one of {sorted(PROTOCOLS)}"
        ) from None
