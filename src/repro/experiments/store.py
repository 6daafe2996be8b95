"""Resumable result persistence — append-only JSONL keyed by spec hash.

Fittingly for a checkpoint/recovery paper, the campaign engine's own
state survives interruption: every completed run is one self-describing
JSON line, appended and flushed as soon as it finishes.  Restarting a
campaign against the same file skips every run whose spec hash is
already present — the sweep's "recovery" re-executes only the lost work,
never the validated prefix.

A torn final line (the process died mid-write) is tolerated and simply
re-run; duplicate hashes keep the newest record.

The store is also the campaign fabric's *commit point*: a cell is done
exactly when its record is here.  Elastic ``filequeue`` workers never
write the main store directly — each appends to its own **shard**
(``<store>.shard.<worker>.jsonl``, same format, no write contention) and
the coordinator folds shards in with :meth:`ResultStore.merge_shards`,
deduplicating by spec hash (runs are deterministic, so a duplicate
execution yields an identical record) and optionally dropping records no
manifest campaign accounts for.  Real records displace quarantined
placeholders during the merge; healthy records are never overwritten.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Dict, Iterable, Iterator, List, Optional

from repro.experiments.runner import RunRecord


def shard_path(store_path: str, worker_id: str) -> str:
    """The sharded store one worker appends to (same JSONL format)."""
    safe = "".join(c if (c.isalnum() or c in "-._") else "_"
                   for c in str(worker_id))
    return f"{store_path}.shard.{safe}.jsonl"


def list_shards(store_path: str) -> List[str]:
    """Every worker shard next to ``store_path``, in stable order."""
    return sorted(glob.glob(f"{glob.escape(store_path)}.shard.*.jsonl"))


class ResultStore:
    """Append-only JSONL store for :class:`RunRecord`, keyed by spec hash."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._records: Dict[str, RunRecord] = {}
        self._malformed = 0
        self._needs_newline = False
        self._load()

    # ------------------------------------------------------------------
    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path, "r", encoding="utf-8") as fh:
            content = fh.read()
        # A torn final line has no newline; seal it on the next append or
        # the new record would merge into it and be unreadable.
        self._needs_newline = bool(content) and not content.endswith("\n")
        for line in content.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = RunRecord.from_dict(json.loads(line))
            except (ValueError, KeyError, TypeError):
                self._malformed += 1
                continue
            self._records[record.spec_hash] = record

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, spec_hash: str) -> bool:
        return spec_hash in self._records

    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self._records.values())

    @property
    def malformed_lines(self) -> int:
        """Lines skipped on load (torn writes from an interrupted run)."""
        return self._malformed

    def completed_hashes(self) -> List[str]:
        return list(self._records)

    def get(self, spec_hash: str) -> Optional[RunRecord]:
        return self._records.get(spec_hash)

    def records(self) -> List[RunRecord]:
        return list(self._records.values())

    # ------------------------------------------------------------------
    def compact(self, keep_hashes: Iterable[str]) -> List[RunRecord]:
        """Rewrite the store keeping only ``keep_hashes``; returns dropped.

        The garbage-collection half of the store lifecycle (``repro sweep
        --gc``): records whose spec hash is absent from ``keep_hashes``
        (normally the union of every manifest campaign's hashes) are
        dropped, as are duplicate lines (newest-per-hash already wins on
        load) and malformed/torn lines.  The rewrite is atomic — a crash
        mid-compaction leaves the original file intact.
        """
        keep = set(keep_hashes)
        kept = [r for h, r in self._records.items() if h in keep]
        dropped = [r for h, r in self._records.items() if h not in keep]
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            for record in kept:
                fh.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        self._records = {r.spec_hash: r for r in kept}
        self._malformed = 0
        self._needs_newline = False
        return dropped

    def append(self, record: RunRecord) -> None:
        """Persist one record durably (append + flush + fsync)."""
        self._records[record.spec_hash] = record
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            if self._needs_newline:
                fh.write("\n")
                self._needs_newline = False
            fh.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def append_torn(self, record: RunRecord, fraction: float = 0.5) -> None:
        """Append only a prefix of the record's line, with no newline —
        the write pattern of a process killed mid-append.  Used by the
        chaos harness (and crash-realism tests) to prove the loader
        seals torn tails instead of corrupting the next record.  The
        record is deliberately NOT registered in memory: it was lost.
        """
        line = json.dumps(record.to_dict(), sort_keys=True)
        cut = max(1, int(len(line) * fraction))
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            if self._needs_newline:
                fh.write("\n")
            fh.write(line[:cut])
            fh.flush()
        self._needs_newline = True
        self._malformed += 1

    # ------------------------------------------------------------------
    def merge_shards(self, keep_hashes: Optional[Iterable[str]] = None,
                     *, remove: bool = True) -> Dict[str, int]:
        """Fold every worker shard into this store, dedup by spec hash.

        ``keep_hashes`` (normally the manifest's union of campaign spec
        hashes) filters what may enter the main store — shard records
        from retired or foreign campaigns are dropped, not merged.  A
        record already present wins over a shard duplicate (deterministic
        runs make them interchangeable), except that a *real* record
        always displaces a quarantined placeholder.  Merged shards are
        deleted unless ``remove=False``.  Returns counters for telemetry:
        shards / merged / duplicates / dropped / torn_lines.
        """
        keep = set(keep_hashes) if keep_hashes is not None else None
        stats = {"shards": 0, "merged": 0, "duplicates": 0,
                 "dropped": 0, "torn_lines": 0}
        for path in list_shards(self.path):
            shard = ResultStore(path)
            stats["shards"] += 1
            stats["torn_lines"] += shard.malformed_lines
            for record in shard:
                if keep is not None and record.spec_hash not in keep:
                    stats["dropped"] += 1
                    continue
                existing = self._records.get(record.spec_hash)
                if existing is not None and not (existing.failed
                                                 and not record.failed):
                    stats["duplicates"] += 1
                    continue
                self.append(record)
                stats["merged"] += 1
            if remove:
                os.remove(path)
        return stats
