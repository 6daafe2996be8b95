"""SafetyNet: the paper's primary contribution.

This package implements the checkpoint/recovery machinery itself:

* :mod:`repro.core.clb` — Checkpoint Log Buffers (incremental checkpoints
  of memory and coherence state via undo logging, once per block per
  interval).
* :mod:`repro.core.clock` — the loosely synchronised checkpoint clock that
  serves as the logical time base (skew < minimum network latency).
* :mod:`repro.core.recovery` — system recovery and restart orchestration.
* :mod:`repro.core.commit` — output/input commit handling at the sphere of
  recovery boundary.

The pipelined two-phase checkpoint validation (agent, service
controllers, and the participant protocol) lives in
:mod:`repro.checkpoint`.
"""

from repro.core.clb import CheckpointLogBuffer, LogEntry
from repro.core.clock import CheckpointClock
from repro.core.commit import InputLog, OutputCommitBuffer
from repro.core.recovery import RecoveryManager, RecoveryStats

__all__ = [
    "CheckpointLogBuffer",
    "LogEntry",
    "CheckpointClock",
    "OutputCommitBuffer",
    "InputLog",
    "RecoveryManager",
    "RecoveryStats",
]
