"""Durable per-cell attempt journal — leases, heartbeats, quarantine.

The checkpoint/recovery idea applied to the campaign engine itself: the
:class:`~repro.experiments.store.ResultStore` is the *commit point* (a
cell is done exactly when its record is in the store), and this journal
is the recovery log that says what is in flight, by whom, and how many
times it has been tried.  It lives next to the store and manifest as a
directory of tiny per-cell JSON files::

    <store>.journal/
        pending/<spec_hash>.json      queued work (spec + attempt count)
        leased/<spec_hash>.json       claimed work (worker, lease stamp;
                                      the file's mtime is the heartbeat)
        quarantined/<spec_hash>.json  gave up (error, traceback, attempts)
        events.jsonl                  append-only fabric event log

A cell is *claimed* by atomically renaming its file from ``pending/`` to
``leased/`` — POSIX rename guarantees exactly one winner, which is what
lets elastic ``repro worker`` processes on any host sharing the
directory (the ``filequeue`` backend) coexist without locks.  A worker
stamps its lease (``os.utime``) while executing; any peer may reap a
lease whose heartbeat is older than the TTL and move the cell back to
``pending/`` for another attempt.  Because the store dedupes by spec
hash and every run is deterministic, the worst outcome of a reaped-but-
alive worker is a duplicate *execution*, never a duplicate or divergent
*record* — exactly-once effects without distributed consensus.

Everything here tolerates concurrent peers and sudden death at any
point: operations are individually atomic (rename / single ``O_APPEND``
write), re-queue creates the pending copy *before* unlinking the lease
(a crash in between leaves a harmless duplicate, never a lost cell), and
``complete`` removes both copies so a moot retry dies in the queue.
"""

from __future__ import annotations

import json
import os
import socket
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.spec import RunSpec

STATES = ("pending", "leased", "quarantined")


def default_worker_id() -> str:
    """``<host>-<pid>``: unique per worker process, readable in status."""
    return f"{socket.gethostname()}-{os.getpid()}"


def journal_path(store_path: str) -> str:
    """``<store>.journal``, next to the JSONL store and the manifest."""
    return f"{store_path}.journal"


class AttemptJournal:
    """Lease/attempt bookkeeping for one campaign store (see module doc)."""

    def __init__(self, root: str) -> None:
        self.root = str(root)

    @classmethod
    def for_store(cls, store_path: str) -> "AttemptJournal":
        return cls(journal_path(store_path))

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def _dir(self, state: str) -> str:
        return os.path.join(self.root, state)

    def _file(self, state: str, spec_hash: str) -> str:
        return os.path.join(self.root, state, f"{spec_hash}.json")

    @property
    def events_path(self) -> str:
        return os.path.join(self.root, "events.jsonl")

    def ensure_dirs(self) -> None:
        for state in STATES:
            os.makedirs(self._dir(state), exist_ok=True)

    def exists(self) -> bool:
        return os.path.isdir(self.root)

    # ------------------------------------------------------------------
    # Atomic file helpers
    # ------------------------------------------------------------------
    def _write(self, path: str, payload: Dict[str, Any]) -> None:
        """Write-then-rename so readers never see a half-written entry."""
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
        os.replace(tmp, path)

    @staticmethod
    def _read(path: str) -> Optional[Dict[str, Any]]:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def _hashes(self, state: str) -> List[str]:
        try:
            names = os.listdir(self._dir(state))
        except OSError:
            return []
        return sorted(n[:-5] for n in names if n.endswith(".json"))

    # ------------------------------------------------------------------
    # Event log (append-only, multi-process safe via O_APPEND)
    # ------------------------------------------------------------------
    def log_event(self, event: str, spec_hash: str = "", **extra: Any) -> None:
        row = {"ts": time.time(), "event": event}
        if spec_hash:
            row["hash"] = spec_hash
        row.update(extra)
        line = json.dumps(row, sort_keys=True) + "\n"
        try:
            fd = os.open(self.events_path,
                         os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            try:
                os.write(fd, line.encode("utf-8"))
            finally:
                os.close(fd)
        except OSError:
            pass                      # telemetry is best-effort, never fatal

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def seed(self, specs, skip_hashes=()) -> int:
        """Queue every spec not already journalled or in ``skip_hashes``."""
        self.ensure_dirs()
        skip = set(skip_hashes)
        added = 0
        for spec in specs:
            h = spec.spec_hash
            if h in skip or any(os.path.exists(self._file(s, h))
                                for s in STATES):
                continue
            self._write(self._file("pending", h),
                        {"spec": spec.canonical(), "attempts": 0,
                         "last_error": None})
            added += 1
        if added:
            self.log_event("seed", count=added)
        return added

    def claim(self, worker_id: str) -> Optional[Tuple[RunSpec, int]]:
        """Claim any pending cell (None when the queue is momentarily dry)."""
        for h in self._hashes("pending"):
            claimed = self.claim_hash(h, worker_id)
            if claimed is not None:
                return claimed
        return None

    def claim_hash(self, spec_hash: str,
                   worker_id: str) -> Optional[Tuple[RunSpec, int]]:
        """Claim one specific cell: rename pending -> leased (one winner),
        then stamp the lease with this worker and a bumped attempt count.
        Returns ``(spec, attempt_number)`` or None if a peer won the race.
        """
        src = self._file("pending", spec_hash)
        dst = self._file("leased", spec_hash)
        try:
            os.rename(src, dst)
        except OSError:
            return None
        entry = self._read(dst) or {"spec": None, "attempts": 0}
        if entry.get("spec") is None:
            # Unreadable entry (should not happen): drop the claim.
            try:
                os.unlink(dst)
            except OSError:
                pass
            return None
        attempts = int(entry.get("attempts", 0)) + 1
        entry.update(attempts=attempts, worker=worker_id,
                     leased_at=time.time())
        self._write(dst, entry)
        self.log_event("claim", spec_hash, worker=worker_id,
                       attempt=attempts)
        return RunSpec.from_dict(entry["spec"]), attempts

    def heartbeat(self, spec_hash: str) -> None:
        """Stamp the lease as alive (no-op if a peer reaped it already)."""
        try:
            os.utime(self._file("leased", spec_hash))
        except OSError:
            pass

    def complete(self, spec_hash: str) -> None:
        """The cell's record is committed: retire every journal copy."""
        for state in ("leased", "pending"):
            try:
                os.unlink(self._file(state, spec_hash))
            except OSError:
                pass
        self.log_event("complete", spec_hash)

    def fail(self, spec_hash: str, error: str) -> None:
        """Attempt failed: move lease back to pending, keeping the count."""
        self._requeue(spec_hash, last_error=error, event="fail",
                      attempt_delta=0)

    def release(self, spec_hash: str) -> None:
        """Voluntary release (SIGINT): re-queue without burning an attempt."""
        self._requeue(spec_hash, last_error=None, event="release",
                      attempt_delta=-1)

    def quarantine(self, spec_hash: str, error: str,
                   traceback_text: str = "", attempts: int = 0) -> None:
        """Retries exhausted: park the cell with its post-mortem."""
        src = self._file("leased", spec_hash)
        entry = self._read(src) or {"spec": None}
        entry.update(error=error, traceback=traceback_text,
                     quarantined_at=time.time())
        if attempts:
            # The caller's count is authoritative (a crash-loop guard may
            # quarantine at a higher attempt than the lease recorded).
            entry["attempts"] = attempts
        self._write(self._file("quarantined", spec_hash), entry)
        try:
            os.unlink(src)
        except OSError:
            pass
        self.log_event("quarantine", spec_hash, error=error,
                       attempts=entry.get("attempts", attempts))

    def clear_quarantined(self) -> List[str]:
        """Drop quarantine entries (``--retry-failed``): they re-seed."""
        dropped = []
        for h in self._hashes("quarantined"):
            try:
                os.unlink(self._file("quarantined", h))
                dropped.append(h)
            except OSError:
                pass
        if dropped:
            self.log_event("retry_failed", count=len(dropped))
        return dropped

    def _requeue(self, spec_hash: str, *, last_error: Optional[str],
                 event: str, attempt_delta: int) -> None:
        src = self._file("leased", spec_hash)
        entry = self._read(src)
        if entry is None:
            return                     # a peer reaped or completed it first
        entry["attempts"] = max(0, int(entry.get("attempts", 0))
                                + attempt_delta)
        entry["last_error"] = last_error
        entry.pop("worker", None)
        entry.pop("leased_at", None)
        # Pending copy first, lease unlink second: a crash in between
        # leaves a duplicate (harmless), never a lost cell.
        self._write(self._file("pending", spec_hash), entry)
        try:
            os.unlink(src)
        except OSError:
            pass
        self.log_event(event, spec_hash, error=last_error or "")

    def requeue_expired(self, lease_ttl: float,
                        now: Optional[float] = None) -> List[str]:
        """Reap leases whose heartbeat is older than ``lease_ttl`` seconds.

        Any participant may call this (workers do, every claim cycle): a
        SIGKILLed or wedged worker's cells flow back to ``pending/`` and
        are re-executed by whoever claims them next.
        """
        now = time.time() if now is None else now
        reaped = []
        for h in self._hashes("leased"):
            path = self._file("leased", h)
            try:
                age = now - os.stat(path).st_mtime
            except OSError:
                continue
            if age <= lease_ttl:
                continue
            self._requeue(h, last_error=f"lease expired ({age:.1f}s "
                          "without heartbeat)", event="requeue",
                          attempt_delta=0)
            reaped.append(h)
        return reaped

    # ------------------------------------------------------------------
    # Inspection (``repro sweep --status``, coordinator drain checks)
    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        return {state: len(self._hashes(state)) for state in STATES}

    def outstanding(self) -> int:
        """Cells not yet committed or quarantined (pending + leased)."""
        return len(self._hashes("pending")) + len(self._hashes("leased"))

    def entries(self, state: str) -> List[Dict[str, Any]]:
        """Journal entries of one state, with heartbeat age for leases."""
        now = time.time()
        out = []
        for h in self._hashes(state):
            path = self._file(state, h)
            entry = self._read(path)
            if entry is None:
                continue
            entry["spec_hash"] = h
            if state == "leased":
                try:
                    entry["heartbeat_age_s"] = now - os.stat(path).st_mtime
                except OSError:
                    continue
            out.append(entry)
        return out
