"""Pipelined checkpoint validation (paper §3.5).

Validation decides when a checkpoint becomes the recovery point.  The
rest of the lifecycle lives in :mod:`repro.core`: the checkpoint clock
(``core/clock.py``), output/input commit (``core/commit.py``) and
recovery (``core/recovery.py``).

* :mod:`repro.checkpoint.participant` — the
  :class:`CheckpointParticipant` protocol every in-sphere component
  implements (CCN stepping, open-interval reporting, RPCN deallocation,
  readiness signalling).
* :mod:`repro.checkpoint.agent` — the per-node
  :class:`ValidationAgent`: edge-triggered readiness recomputation and
  sign-off announcement, with a resync timer as dropped-message
  insurance.
* :mod:`repro.checkpoint.controllers` — the redundant
  :class:`ServiceControllers`: collect sign-offs and advance the
  recovery point to their minimum, recomputed per sign-off.
"""

from repro.checkpoint.agent import ValidationAgent
from repro.checkpoint.controllers import ServiceControllers
from repro.checkpoint.participant import (
    CheckpointParticipant,
    ReadinessCallback,
    missing_members,
)

__all__ = [
    "CheckpointParticipant",
    "ReadinessCallback",
    "ServiceControllers",
    "ValidationAgent",
    "missing_members",
]
