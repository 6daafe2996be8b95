"""Structured trace journal and Chrome-trace/Perfetto export.

A :class:`TraceLog` collects typed :class:`TraceRecord` entries from the
instrumentation points the SafetyNet lifecycle already owns — checkpoint
edges, validation announcements, controller sign-offs, recovery-point
advances, fault injections, detections, rollback begin/restore/end, and
message losses.  Each record carries the sim-cycle timestamp (1 cycle =
1 ns at the paper's 1 GHz target) plus a small data dict.

Records are appended in kernel dispatch order, so the journal is sorted
by cycle by construction; :func:`chrome_trace` turns it into the Trace
Event Format that ``chrome://tracing`` and https://ui.perfetto.dev load
directly, with one process per node (clock + validation tracks) and a
``system`` process for the controllers, recovery, network, and fault
injectors.  Recovery episodes and validated epochs are emitted as
duration (``ph: "X"``) slices so a rollback's width — and the sign-off
lag of every epoch — is visually inspectable; the slices are the rows
:mod:`repro.obs.timeline` derives, not a second derivation.

The journal hangs off the simulator as :attr:`Simulator.trace
<repro.sim.kernel.Simulator.trace>`.  Every instrumentation point reads
``sim.trace`` and emits only when it is not None; no kernel events are
scheduled and no RNG state is touched, so traced runs are bit-identical
to untraced ones and the tracer-off path costs one attribute load on
the (infrequent) lifecycle paths only.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

# Record kinds.  Values double as Chrome-trace event names.
KIND_EDGE = "ckpt.edge"                  # node reached checkpoint `ccn`
KIND_ANNOUNCE = "validate.announce"      # node sent VALIDATE_READY for `k`
KIND_SIGNOFF = "validate.signoff"        # controllers accepted node's `k`
KIND_RPCN_ADVANCE = "rpcn.advance"       # controllers advanced the RPCN
KIND_RPCN_APPLY = "rpcn.apply"           # node applied an RPCN broadcast
KIND_INJECT = "fault.inject"             # an injector wounded the machine
KIND_DETECT = "detect.fault"             # a component reported a fault
KIND_LOST = "net.lost"                   # a message was lost in transit
KIND_RECOVERY_BEGIN = "recovery.begin"   # rollback decided (broadcast sent)
KIND_RECOVERY_RESTORE = "recovery.restore"  # state restored to the RPCN
KIND_RECOVERY_END = "recovery.end"       # two-phase restart completed

#: Node id used for machine-wide records (controllers, recovery, faults).
SYSTEM = -1


class TraceRecord:
    """One typed trace entry: (cycle, kind, node, data)."""

    __slots__ = ("cycle", "kind", "node", "data")

    def __init__(self, cycle: int, kind: str, node: int,
                 data: Dict[str, Any]) -> None:
        self.cycle = cycle
        self.kind = kind
        self.node = node
        self.data = data

    def to_dict(self) -> Dict[str, Any]:
        return {"cycle": self.cycle, "kind": self.kind, "node": self.node,
                **self.data}

    def __repr__(self) -> str:
        return (f"TraceRecord(@{self.cycle} {self.kind} node={self.node} "
                f"{self.data})")


class TraceLog:
    """An append-only journal of :class:`TraceRecord`.

    Attach to a machine with :meth:`Machine.attach_tracer
    <repro.system.machine.Machine.attach_tracer>`; every instrumentation
    point calls :meth:`emit` with the current cycle.  The journal is
    plain data — query with :meth:`of_kind`, count with :meth:`counts`,
    export with :func:`chrome_trace`.
    """

    __slots__ = ("records",)

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []

    def emit(self, cycle: int, kind: str, node: int = SYSTEM,
             **data: Any) -> None:
        self.records.append(TraceRecord(cycle, kind, node, data))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def of_kind(self, kind: str) -> List[TraceRecord]:
        return [r for r in self.records if r.kind == kind]

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for r in self.records:
            out[r.kind] = out.get(r.kind, 0) + 1
        return out


# ----------------------------------------------------------------------
# Chrome-trace (Trace Event Format) export
# ----------------------------------------------------------------------
# pid layout: pid 0 is the machine-wide "system" process; node n is
# pid n + 1.  tids within each process are small enums (below).
_SYS_PID = 0
_TID_CONTROLLERS = 0
_TID_RECOVERY = 1
_TID_FAULTS = 2
_TID_NETWORK = 3
_TID_CLOCK = 0
_TID_VALIDATION = 1

_NODE_KIND_TIDS = {
    KIND_EDGE: _TID_CLOCK,
    KIND_ANNOUNCE: _TID_VALIDATION,
    KIND_RPCN_APPLY: _TID_VALIDATION,
}
_SYS_KIND_TIDS = {
    KIND_SIGNOFF: _TID_CONTROLLERS,
    KIND_RPCN_ADVANCE: _TID_CONTROLLERS,
    KIND_INJECT: _TID_FAULTS,
    KIND_DETECT: _TID_RECOVERY,
    KIND_LOST: _TID_NETWORK,
    KIND_RECOVERY_BEGIN: _TID_RECOVERY,
    KIND_RECOVERY_RESTORE: _TID_RECOVERY,
    KIND_RECOVERY_END: _TID_RECOVERY,
}


def _pid_tid(record: TraceRecord) -> "tuple[int, int]":
    if record.node >= 0 and record.kind in _NODE_KIND_TIDS:
        return record.node + 1, _NODE_KIND_TIDS[record.kind]
    return _SYS_PID, _SYS_KIND_TIDS.get(record.kind, _TID_RECOVERY)


def _metadata_events(num_nodes: int) -> List[Dict[str, Any]]:
    def meta(name: str, pid: int, tid: int, value: str) -> Dict[str, Any]:
        return {"name": name, "ph": "M", "pid": pid, "tid": tid, "ts": 0,
                "args": {"name": value}}

    events = [
        meta("process_name", _SYS_PID, 0, "system"),
        meta("thread_name", _SYS_PID, _TID_CONTROLLERS, "controllers"),
        meta("thread_name", _SYS_PID, _TID_RECOVERY, "recovery"),
        meta("thread_name", _SYS_PID, _TID_FAULTS, "faults"),
        meta("thread_name", _SYS_PID, _TID_NETWORK, "network"),
    ]
    for n in range(num_nodes):
        events.append(meta("process_name", n + 1, 0, f"node {n}"))
        events.append(meta("thread_name", n + 1, _TID_CLOCK, "ckpt clock"))
        events.append(meta("thread_name", n + 1, _TID_VALIDATION,
                           "validation"))
    return events


def chrome_trace(trace: TraceLog, *, num_nodes: int) -> Dict[str, Any]:
    """Render the journal in Chrome Trace Event Format (JSON-safe dict).

    ``ts`` is the raw sim cycle (1 cycle = 1 ns of simulated time; the
    viewer's time unit is nominally µs, which only scales the axis
    labels).  Instant events carry every lifecycle record; two families
    of duration slices, read from :mod:`repro.obs.timeline`, make
    availability readable at a glance:

    * one ``recovery episode`` slice per :func:`recovery_episodes` row,
      from the rollback decision to the two-phase restart, on the
      system/recovery track;
    * one ``epoch k`` slice per validated :func:`availability_timeline`
      row, from its closing edge to the RPCN advance covering it, on the
      controllers track — the slice width *is* the sign-off lag.

    Each slice's ``args`` is its timeline row.
    """
    # Imported here, not at the top: repro.obs.timeline imports this
    # module for the record kinds.
    from repro.obs.timeline import availability_timeline, recovery_episodes

    events: List[Dict[str, Any]] = list(_metadata_events(num_nodes))
    for episode in recovery_episodes(trace):
        events.append({
            "name": "recovery episode", "cat": "recovery", "ph": "X",
            "ts": episode["begin_cycle"], "dur": max(1, episode["span"]),
            "pid": _SYS_PID, "tid": _TID_RECOVERY, "args": episode,
        })
    for row in availability_timeline(trace, num_nodes=num_nodes):
        if row["signoff_lag"] is None:
            continue
        events.append({
            "name": f"epoch {row['epoch']}", "cat": "validation", "ph": "X",
            "ts": row["edge_cycle"], "dur": max(1, row["signoff_lag"]),
            "pid": _SYS_PID, "tid": _TID_CONTROLLERS, "args": row,
        })
    for record in trace.records:
        pid, tid = _pid_tid(record)
        events.append({
            "name": record.kind, "cat": record.kind.split(".", 1)[0],
            "ph": "i", "s": "t" if pid else "g", "ts": record.cycle,
            "pid": pid, "tid": tid, "args": dict(record.data),
        })
    # The viewer tolerates any order, but a monotonic stream makes the
    # emitted file trivially checkable (the CI smoke step asserts it).
    events.sort(key=lambda e: e["ts"])
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {"source": "repro trace",
                      "time_unit": "1 ts = 1 sim cycle = 1 ns @ 1 GHz",
                      "num_nodes": num_nodes},
    }


def write_chrome_trace(trace: TraceLog, path: str, *, num_nodes: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(trace, num_nodes=num_nodes), fh)
        fh.write("\n")


def validate_chrome_trace(payload: Dict[str, Any]) -> List[str]:
    """Schema-check an exported trace; returns problems (empty = valid).

    Used by the CI smoke step and the test suite: every event must carry
    ``ph``/``ts``/``pid``/``tid``, duration events a positive ``dur``,
    and the stream must be monotonic in ``ts``.
    """
    problems: List[str] = []
    events = payload.get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["traceEvents missing or empty"]
    last_ts = None
    for i, event in enumerate(events):
        for key in ("ph", "ts", "pid", "tid"):
            if key not in event:
                problems.append(f"event {i} missing {key!r}")
        ph = event.get("ph")
        if ph not in ("M", "i", "X"):
            problems.append(f"event {i} has unexpected ph {ph!r}")
        if ph == "X" and not (isinstance(event.get("dur"), int)
                              and event["dur"] > 0):
            problems.append(f"event {i} (X) lacks a positive dur")
        ts = event.get("ts")
        if not isinstance(ts, int) or ts < 0:
            problems.append(f"event {i} ts {ts!r} is not a non-negative int")
        elif last_ts is not None and ts < last_ts:
            problems.append(f"event {i} ts {ts} < previous {last_ts}")
        else:
            last_ts = ts
        if problems and len(problems) > 20:
            problems.append("... (truncated)")
            break
    return problems


def counts_table(trace: TraceLog) -> List["tuple[str, int]"]:
    """(kind, count) rows in a stable order, for CLI summaries."""
    order = [
        KIND_EDGE, KIND_ANNOUNCE, KIND_SIGNOFF, KIND_RPCN_ADVANCE,
        KIND_RPCN_APPLY, KIND_INJECT, KIND_LOST, KIND_DETECT,
        KIND_RECOVERY_BEGIN, KIND_RECOVERY_RESTORE, KIND_RECOVERY_END,
    ]
    counts = trace.counts()
    rows = [(kind, counts.pop(kind)) for kind in order if kind in counts]
    rows.extend(sorted(counts.items()))
    return rows
