"""Campaign-fabric telemetry — reading the attempt journal's event log.

The fault-tolerant campaign fabric (``repro.experiments.backends`` /
``journal``) appends one JSON line to ``<store>.journal/events.jsonl``
for every lease transition: claims, completions, failures, requeues
after lease expiry, quarantines, worker starts/exits, and injected
chaos events.  That log is the flight recorder for a campaign — after a
chaotic or interrupted sweep it answers "which worker died, how many
times was each cell retried, and where did the attempts go?".

This module is the read side: :func:`load_fabric_events` parses the log
tolerantly (a torn tail line is exactly what a killed worker leaves
behind) and :func:`fabric_summary` collapses it into the counters shown
by ``repro sweep --status``.  Like the rest of ``repro.obs`` this is
observation only — nothing here mutates journal state.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

#: Event kinds emitted by :class:`~repro.experiments.journal.AttemptJournal`
#: and :func:`~repro.experiments.backends.run_worker`, in lifecycle order.
FABRIC_EVENTS = (
    "seed", "claim", "complete", "fail", "requeue", "release",
    "quarantine", "worker_start", "worker_exit", "chaos_stall", "chaos_torn",
)


def load_fabric_events(path: str) -> List[Dict[str, Any]]:
    """Parse an ``events.jsonl`` log; missing file -> ``[]``.

    ``path`` may be the events file itself, the ``<store>.journal``
    directory, or the store path (the journal is found next to it).
    Torn or malformed lines are skipped — the log is written by
    processes that chaos testing deliberately SIGKILLs mid-write.
    """
    candidates = [
        os.path.join(f"{path}.journal", "events.jsonl"),
        os.path.join(path, "events.jsonl"),
        path,
    ]
    events_file = next((c for c in candidates if os.path.isfile(c)), None)
    if events_file is None:
        return []
    events: List[Dict[str, Any]] = []
    with open(events_file, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except ValueError:
                continue
            if isinstance(row, dict) and "event" in row:
                events.append(row)
    return events


def fabric_summary(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Collapse an event stream into campaign-health counters.

    Returns a dict with one count per event kind (``claims``,
    ``completes``, ``fails``, ``requeues``, ``releases``,
    ``quarantines``, ``chaos_events``), the distinct ``workers`` seen,
    per-cell retry pressure (``max_attempts_hash`` / ``max_attempts``),
    and the campaign's wall-clock ``span_s``.
    """
    counts = {kind: 0 for kind in FABRIC_EVENTS}
    workers: List[str] = []
    attempts: Dict[str, int] = {}
    first_ts: Optional[float] = None
    last_ts: Optional[float] = None
    for row in events:
        kind = row.get("event")
        if kind in counts:
            counts[kind] += 1
        worker = row.get("worker")
        if worker and worker not in workers:
            workers.append(worker)
        if kind == "claim" and row.get("hash"):
            h = row["hash"]
            attempts[h] = max(attempts.get(h, 0), int(row.get("attempt", 1)))
        ts = row.get("ts")
        if isinstance(ts, (int, float)):
            first_ts = ts if first_ts is None else min(first_ts, ts)
            last_ts = ts if last_ts is None else max(last_ts, ts)
    worst_hash = max(attempts, key=attempts.get) if attempts else None
    return {
        "events": len(events),
        "claims": counts["claim"],
        "completes": counts["complete"],
        "fails": counts["fail"],
        "requeues": counts["requeue"],
        "releases": counts["release"],
        "quarantines": counts["quarantine"],
        "chaos_events": counts["chaos_stall"] + counts["chaos_torn"],
        "workers": workers,
        "max_attempts": attempts.get(worst_hash, 0) if worst_hash else 0,
        "max_attempts_hash": worst_hash,
        "span_s": (last_ts - first_ts)
        if first_ts is not None and last_ts is not None else 0.0,
    }
