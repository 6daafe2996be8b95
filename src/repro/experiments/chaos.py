"""Chaos injection for the campaign fabric — test the healing, not the hope.

SafetyNet's availability claim is earned by injecting faults into the
simulated machine; the campaign fabric's self-healing claim deserves the
same treatment.  This module injects three fault families into *real*
sweeps:

* **worker kills** — the process executing a cell SIGKILLs itself
  mid-run (after the machine is built and simulating), exactly like an
  OOM kill or a pre-empted spot instance;
* **heartbeat stalls** — a filequeue worker stops stamping its lease
  while still executing, so the lease expires and the cell is re-queued
  under it (the duplicate-execution / store-dedupe path);
* **torn store writes** — a result append dies mid-line, leaving a
  truncated trailing JSONL record (the crash the store's loader seals).

Every decision is a *deterministic* function of ``(chaos seed, fault
kind, spec hash, attempt number)`` — no RNG state, no wall clock — so a
chaotic sweep is reproducible and, crucially, *convergent*: with the
default ``*_until=1`` scoping only first attempts are eligible, so a
retried cell always gets a clean second attempt and the sweep provably
drains.  Raising ``kill_until`` widens the blast radius for soak tests.

Knobs come from the ``REPRO_CHAOS`` environment variable (inherited by
every worker and guarded cell process), e.g.::

    REPRO_CHAOS="kill=1.0,kill_until=1,stall=0.5,torn=0.3,seed=7" \
        repro sweep --backend filequeue --jobs 2 ...

``kill``/``stall``/``torn`` are injection probabilities in [0, 1];
``*_until`` caps the attempt numbers eligible for each (default 1);
``seed`` decorrelates campaigns.  An empty/unset variable disables chaos
entirely (the production default).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import asdict, dataclass
from typing import Any, Dict, Mapping, Optional

CHAOS_ENV = "REPRO_CHAOS"


@dataclass(frozen=True)
class ChaosConfig:
    """Deterministic fault-injection policy for one campaign."""

    kill: float = 0.0          # P(SIGKILL the cell process mid-run)
    stall: float = 0.0         # P(worker skips lease heartbeats for the cell)
    torn: float = 0.0          # P(result append is torn mid-line)
    kill_until: int = 1        # attempts <= this are kill-eligible
    stall_until: int = 1
    torn_until: int = 1
    seed: int = 0

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        return self.kill > 0 or self.stall > 0 or self.torn > 0

    # ------------------------------------------------------------------
    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None
                 ) -> Optional["ChaosConfig"]:
        """Parse ``REPRO_CHAOS`` (None when unset/empty/all-zero)."""
        raw = (environ if environ is not None else os.environ).get(
            CHAOS_ENV, "").strip()
        if not raw:
            return None
        config = cls.parse(raw)
        return config if config.active else None

    @classmethod
    def parse(cls, text: str) -> "ChaosConfig":
        """Parse ``kill=0.5,stall=0.2,torn=0.1,kill_until=2,seed=7``."""
        fields: Dict[str, Any] = {}
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ValueError(
                    f"bad {CHAOS_ENV} item {item!r}: expected KNOB=VALUE")
            key, _, value = item.partition("=")
            key = key.strip()
            if key in ("kill", "stall", "torn"):
                fields[key] = float(value)
            elif key in ("kill_until", "stall_until", "torn_until", "seed"):
                fields[key] = int(value)
            else:
                raise ValueError(f"unknown {CHAOS_ENV} knob {key!r}")
        for knob in ("kill", "stall", "torn"):
            p = fields.get(knob, 0.0)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{CHAOS_ENV} {knob}={p} not in [0, 1]")
        return cls(**fields)

    # ------------------------------------------------------------------
    # Serialisation across process boundaries (pool tasks, fork workers).
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Optional[Mapping[str, Any]]
                  ) -> Optional["ChaosConfig"]:
        if not data:
            return None
        return cls(**dict(data))

    # ------------------------------------------------------------------
    # Deterministic decisions
    # ------------------------------------------------------------------
    def _unit(self, kind: str, spec_hash: str, attempt: int) -> float:
        """A stable uniform draw in [0, 1) for one (kind, cell, attempt)."""
        blob = f"{self.seed}:{kind}:{spec_hash}:{attempt}".encode()
        digest = hashlib.sha256(blob).digest()
        return int.from_bytes(digest[:8], "big") / 2 ** 64

    def should_kill(self, spec_hash: str, attempt: int) -> bool:
        return (attempt <= self.kill_until
                and self._unit("kill", spec_hash, attempt) < self.kill)

    def kill_delay_s(self, spec_hash: str, attempt: int) -> float:
        """When the SIGKILL lands, 5-45 ms into the cell (mid-simulation)."""
        return 0.005 + 0.04 * self._unit("kill_delay", spec_hash, attempt)

    def should_stall(self, spec_hash: str, attempt: int) -> bool:
        return (attempt <= self.stall_until
                and self._unit("stall", spec_hash, attempt) < self.stall)

    def should_tear(self, spec_hash: str, attempt: int) -> bool:
        return (attempt <= self.torn_until
                and self._unit("torn", spec_hash, attempt) < self.torn)


def arm_kill(chaos: Optional[ChaosConfig], spec_hash: str,
             attempt: int) -> bool:
    """In a cell process: schedule a self-SIGKILL if chaos says so.

    Returns True when a kill was armed (the caller is doomed).  The kill
    fires from a daemon timer thread a few milliseconds in, so the cell
    dies *mid-simulation* — the pipe to the supervising parent sees EOF,
    never a result, exactly like an external ``kill -9``.
    """
    if chaos is None or not chaos.should_kill(spec_hash, attempt):
        return False
    import signal
    import threading

    def _die() -> None:
        os.kill(os.getpid(), signal.SIGKILL)

    timer = threading.Timer(chaos.kill_delay_s(spec_hash, attempt), _die)
    timer.daemon = True
    timer.start()
    return True
