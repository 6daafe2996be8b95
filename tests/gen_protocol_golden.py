"""Regenerate the golden run baselines for tests/test_protocols.py.

The protocol refactor's acceptance bar is *bit identity*: a default
(``protocol=mosi``, ``arbiter=fifo``) run must produce exactly the
RunResult fields, every registered counter, and the kernel dispatch
count that the pre-refactor code produced.  Those baselines cannot be
recomputed after the refactor (the pre-refactor code is gone), so they
are captured here as data: this script ran against the last pre-refactor
commit and wrote ``tests/data/protocol_golden.json``, which the
equivalence suite replays forever after.

The matrix was later extended, at the last commit that still carried
the flag-selected alternative implementations (calendar kernel core,
per-request timeout events, polled validation, reference burst loop),
with cells that exercise each of those mechanisms; the goldens, not a
second implementation, now pin their behaviour.

Re-run only to *extend* the matrix (new shapes/faults/seeds), never to
"refresh" baselines after a divergence — that would turn the oracle into
a mirror.

    PYTHONPATH=src python tests/gen_protocol_golden.py
"""

from __future__ import annotations

import json
import os

from repro.experiments import RunSpec, build_machine

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "protocol_golden.json")

#: The equivalence matrix: seeds x shapes x fault modes, sized so the
#: whole golden sweep replays in well under a minute.
GOLDEN_SPECS = [
    RunSpec(workload=workload, instructions=2_000, warmup=0, seed=seed,
            scale=64, torus_width=w, torus_height=h,
            fault=fault, fault_period=period, fault_at=fault_at)
    for workload in ("apache",)
    for (w, h) in ((2, 2), (4, 4))
    for seed in (1, 2)
    for (fault, period, fault_at) in (
        ("none", None, None),
        ("transient", 2_500, 1_200),
        ("switch", None, 1_500),
    )
] + [
    # One jbb cell: a second workload's sharing mix on the default shape.
    RunSpec(workload="jbb", instructions=2_000, warmup=0, seed=1, scale=64,
            torus_width=2, torus_height=2),
]

#: Gentle fault rate for the extension cells: recoveries the run absorbs
#: (the 2 500-cycle rate above livelocks corrupt/misroute on 4x4).
_GENTLE = dict(fault_period=20_000, fault_at=6_000)

#: Extension cells, each firing one mechanism that once had a second,
#: flag-selected implementation (kernel core, requestor/home timeouts,
#: validation scheduling, burst-loop throttling): a non-zero counter in
#: every record shows the mechanism ran.
GOLDEN_SPECS += [
    RunSpec(workload="apache", instructions=1_000, warmup=0, seed=1,
            scale=64, torus_width=8, torus_height=8),
    RunSpec(workload="apache", instructions=1_000, warmup=0, seed=1,
            scale=64, torus_width=8, torus_height=8, fault="transient",
            **_GENTLE),
] + [
    RunSpec(workload="apache", instructions=2_000, warmup=0, seed=1,
            scale=64, torus_width=4, torus_height=4, fault=fault, **_GENTLE)
    for fault in ("corrupt", "misroute")
] + [
    RunSpec(workload="apache", instructions=1_000, warmup=0, seed=1,
            scale=64, torus_width=4, torus_height=4, protocol=protocol,
            fault="transient", **_GENTLE)
    for protocol in ("mesi", "moesi")
] + [
    # Detection latency gates sign-off (the validation timer path).
    RunSpec(workload="jbb", instructions=1_000, warmup=0, seed=1, scale=64,
            torus_width=4, torus_height=4, detection_latency=4_000),
    # Home-side timeouts catch the drops (home.timeouts > 0).
    RunSpec(workload="jbb", instructions=1_000, warmup=0, seed=1, scale=64,
            torus_width=4, torus_height=4, fault="transient", **_GENTLE,
            config_overrides=(("home_request_timeout", 3_000),)),
    # A 10-entry CLB: stores throttle the burst loop (store_throttles > 0).
    RunSpec(workload="oltp", instructions=4_000, warmup=0, seed=1, scale=64,
            torus_width=2, torus_height=2, clb_bytes=720),
]

#: Switch back-pressure cells: one- and two-message switch buffers make
#: arrivals find a full buffer and retry (``net.buffer_stalls`` > 0 in
#: every record), clean and through transient-fault recoveries.
GOLDEN_SPECS += [
    RunSpec(workload="apache", instructions=2_000, warmup=0, seed=1,
            scale=64, torus_width=4, torus_height=4, fault=fault, **gentle,
            config_overrides=(("switch_buffer_messages", capacity),))
    for capacity in (1, 2)
    for (fault, gentle) in (("none", {}), ("transient", _GENTLE))
]


def run_golden(spec: RunSpec) -> dict:
    """One golden record: results + every counter + dispatch count."""
    machine = build_machine(spec)
    result = machine.run(spec.instructions, max_cycles=spec.max_cycles)
    return {
        "spec": spec.canonical(),
        "spec_hash": spec.spec_hash,
        "result": {
            "cycles": result.cycles,
            "committed_instructions": result.committed_instructions,
            "target_instructions": result.target_instructions,
            "completed": result.completed,
            "crashed": result.crashed,
            "crash_reason": result.crash_reason,
            "recoveries": result.recoveries,
            "lost_instructions": result.lost_instructions,
            "reexecuted_instructions": result.reexecuted_instructions,
        },
        "counters": machine.stats.snapshot(),
        "events_dispatched": machine.sim.events_dispatched,
    }


def main() -> None:
    records = []
    for spec in GOLDEN_SPECS:
        record = run_golden(spec)
        records.append(record)
        print(f"  {spec.label():<16} fault={spec.fault:<9} "
              f"hash={record['spec_hash']} cycles={record['result']['cycles']}")
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({"version": 1, "records": records}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(records)} golden records to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
