"""The checkpoint-lifecycle participant contract.

Every component inside SafetyNet's sphere of recovery takes part in the
same four-phase lifecycle (paper §2, §3):

1. **Clock edge** — the component steps its current checkpoint number
   (CCN) when the node's checkpoint-clock edge fires (``on_edge``).
2. **Sign-off** — a checkpoint k is validatable by this component once
   every transaction it initiated in intervals before k has completed;
   ``min_open_interval()`` reports the earliest interval still holding
   an incomplete transaction (None = nothing open).
3. **Recovery-point advance** — when the service controllers broadcast a
   new recovery-point checkpoint number, ``on_rpcn`` deallocates the
   component's now-validated checkpoint state (CLB segments, register
   snapshots, buffered outputs).
4. **Readiness signalling** — when the component completes its last
   transaction from a pre-edge interval it calls the assigned
   ``on_readiness_changed`` callback, so the validation agent can
   recompute sign-off *at that moment* (nothing else would: the agent
   has no periodic events).  Components fire it conservatively (any
   completion of a transaction that began before the current interval);
   the agent's recompute is cheap and idempotent.
   :func:`transaction_closed` states that trigger once for every
   participant that holds transactions open.

Historically these hooks were duck-typed across four modules; the
protocol below makes the contract explicit and is what
:class:`repro.checkpoint.agent.ValidationAgent` consumes.  Implemented
by :class:`~repro.coherence.cache.CacheController`,
:class:`~repro.coherence.directory.MemoryController`,
:class:`~repro.processor.core.Core`,
:class:`~repro.core.commit.OutputCommitBuffer`, and the snooping
variants (:class:`~repro.coherence.snooping.SnoopingCache`,
:class:`~repro.coherence.snooping.SnoopingMemory`).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Protocol, runtime_checkable

ReadinessCallback = Callable[[], None]

#: Members every participant must expose (used by :func:`missing_members`
#: for a version-robust conformance check; ``isinstance`` against a
#: runtime-checkable Protocol also works but its data-member handling
#: varies across Python versions).
_REQUIRED_ATTRS = ("ccn", "on_readiness_changed")
_REQUIRED_METHODS = ("min_open_interval", "on_edge", "on_rpcn")


@runtime_checkable
class CheckpointParticipant(Protocol):
    """Structural type for components in the checkpoint lifecycle."""

    ccn: int
    on_readiness_changed: Optional[ReadinessCallback]

    def min_open_interval(self) -> Optional[int]:
        """Earliest interval with an incomplete transaction (None = none).

        Validation of checkpoint k requires this to be >= k."""
        ...

    def on_edge(self, new_ccn: int) -> None:
        """Checkpoint-clock edge: advance to interval ``new_ccn``."""
        ...

    def on_rpcn(self, rpcn: int) -> None:
        """Recovery-point advance: deallocate validated checkpoints."""
        ...


def transaction_closed(participant: CheckpointParticipant,
                       start_interval: int) -> None:
    """Phase 4's trigger (paper §3.5): a transaction ``participant``
    opened in interval ``start_interval`` has closed.  If it began before
    the current interval it may have been the last thing blocking
    sign-off of an earlier checkpoint, so tell the validation agent."""
    if (start_interval < participant.ccn
            and participant.on_readiness_changed is not None):
        participant.on_readiness_changed()


def missing_members(obj: object) -> List[str]:
    """Protocol members ``obj`` lacks (empty list = fully conformant)."""
    missing = [name for name in _REQUIRED_ATTRS if not hasattr(obj, name)]
    missing += [
        name for name in _REQUIRED_METHODS
        if not callable(getattr(obj, name, None))
    ]
    return missing
