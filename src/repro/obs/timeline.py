"""Availability timelines: per-epoch validation lag and recovery episodes.

The paper's availability argument lives in three intervals: how long an
epoch waits between its closing checkpoint edge and the recovery point
advancing past it (validation sign-off lag, §3.5), how long a fault goes
undetected (detection window), and how long a rollback takes end to end
(recovery span, §3.6).  This module distils a :class:`~repro.obs.trace.
TraceLog` into exactly those numbers — the rows behind the ROADMAP's
recovery-latency and validation fan-in curves.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.obs.trace import (
    KIND_DETECT,
    KIND_EDGE,
    KIND_INJECT,
    KIND_RECOVERY_BEGIN,
    KIND_RECOVERY_END,
    KIND_RECOVERY_RESTORE,
    KIND_RPCN_ADVANCE,
    TraceLog,
)


def availability_timeline(trace: TraceLog, *, num_nodes: int) -> List[Dict[str, Any]]:
    """Per-epoch rows: when the epoch closed and when it was validated.

    Epoch ``k`` is the execution between checkpoint edges ``k`` and
    ``k + 1``; it is validated once the RPCN reaches ``k + 1`` (every
    participant signed off on all execution before that edge).  Each row
    reports::

        epoch          the epoch number (first is 1: boot to edge 2)
        edge_cycle     cycle the *last* node fired the closing edge
        signoff_cycle  cycle the RPCN advance covering the epoch landed
                       (None: never validated — the run ended first)
        signoff_lag    signoff_cycle - edge_cycle (None when unvalidated)

    A recovery resets sign-off state, so epochs can be re-validated; the
    first covering advance is reported (the availability-relevant one).
    """
    edge_seen: Dict[int, int] = {}
    edge_done: Dict[int, int] = {}
    for record in trace.of_kind(KIND_EDGE):
        ccn = record.data["ccn"]
        edge_seen[ccn] = edge_seen.get(ccn, 0) + 1
        if edge_seen[ccn] >= num_nodes and ccn not in edge_done:
            edge_done[ccn] = record.cycle
    validated: Dict[int, int] = {}       # epoch -> first covering advance
    for record in trace.of_kind(KIND_RPCN_ADVANCE):
        for epoch in range(1, record.data["rpcn"]):
            validated.setdefault(epoch, record.cycle)
    rows: List[Dict[str, Any]] = []
    for ccn in sorted(edge_done):
        epoch = ccn - 1                  # the edge that closes epoch k is k+1
        if epoch < 1:
            continue
        edge_cycle = edge_done[ccn]
        signoff = validated.get(epoch)
        rows.append({
            "epoch": epoch,
            "edge_cycle": edge_cycle,
            "signoff_cycle": signoff,
            "signoff_lag": (signoff - edge_cycle
                            if signoff is not None and signoff >= edge_cycle
                            else None),
        })
    return rows


def recovery_episodes(trace: TraceLog) -> List[Dict[str, Any]]:
    """One row per rollback: trigger, restored RPCN, span, width.

    ``detect_cycle`` is the detection that *triggered* the episode (the
    last one reported before the begin); ``inject_cycle`` the most recent
    fault injection before it, so ``detect_cycle - inject_cycle`` is the
    detection window when injections are sparse enough to pair up.
    """
    episodes: List[Dict[str, Any]] = []
    last_inject = None
    last_detect = None
    begin = None
    restore: Dict[str, Any] = {}
    trigger_inject = None
    trigger_detect = None
    for record in trace.records:
        if record.kind == KIND_INJECT:
            last_inject = record
        elif record.kind == KIND_DETECT:
            last_detect = record
        elif record.kind == KIND_RECOVERY_BEGIN:
            begin = record
            restore = {}
            # Snapshot the trigger now: detections reported *during* the
            # episode are subsumed by it, not its cause.
            trigger_inject = last_inject
            trigger_detect = last_detect
        elif record.kind == KIND_RECOVERY_RESTORE and begin is not None:
            restore = record.data
        elif record.kind == KIND_RECOVERY_END and begin is not None:
            detect_cycle = (trigger_detect.cycle
                            if trigger_detect is not None else begin.cycle)
            inject_cycle = (trigger_inject.cycle
                            if trigger_inject is not None else None)
            episodes.append({
                "begin_cycle": begin.cycle,
                "end_cycle": record.cycle,
                "span": record.cycle - begin.cycle,
                "detect_cycle": detect_cycle,
                "inject_cycle": inject_cycle,
                "detection_window": (detect_cycle - inject_cycle
                                     if inject_cycle is not None
                                     and inject_cycle <= detect_cycle
                                     else None),
                "rpcn": restore.get("rpcn"),
                "entries_unrolled": restore.get("entries_unrolled"),
                "lost_instructions": restore.get("lost_instructions"),
                "reason": begin.data.get("reason"),
            })
            begin = None
    return episodes


def timeline_summary(trace: TraceLog, *, num_nodes: int) -> Dict[str, Any]:
    """Aggregate availability numbers for one run (CLI summary block)."""
    rows = availability_timeline(trace, num_nodes=num_nodes)
    lags = [r["signoff_lag"] for r in rows if r["signoff_lag"] is not None]
    episodes = recovery_episodes(trace)
    spans = [e["span"] for e in episodes]
    windows = [e["detection_window"] for e in episodes
               if e["detection_window"] is not None]
    return {
        "epochs": len(rows),
        "epochs_validated": len(lags),
        "mean_signoff_lag": sum(lags) / len(lags) if lags else 0.0,
        "max_signoff_lag": max(lags) if lags else 0,
        "recoveries": len(episodes),
        "mean_recovery_span": sum(spans) / len(spans) if spans else 0.0,
        "max_recovery_span": max(spans) if spans else 0,
        "mean_detection_window": (sum(windows) / len(windows)
                                  if windows else 0.0),
    }
