"""The observability layer: tracing, sampling, timelines, telemetry.

Two properties carry the whole subsystem:

* **Completeness** — a faulted run's journal contains every lifecycle
  record kind (edges, validation, injection, detection, rollback), and
  the Chrome-trace export of that journal passes its own schema check.
* **Invisibility** — attaching a :class:`TraceLog` (and even the
  event-scheduling :class:`Sampler`) leaves the simulated run
  bit-identical: same cycles, same committed work, same recoveries, same
  counters, same RPCN.  Observation must never become intervention.
"""

import io
import json

import pytest

from repro.cli import main as cli_main
from repro.config import SystemConfig
from repro.experiments import (
    ResultStore,
    Runner,
    RunRecord,
    RunSpec,
    aggregate_telemetry,
    execute_run,
)
from repro.obs import (
    KIND_ANNOUNCE,
    KIND_DETECT,
    KIND_EDGE,
    KIND_INJECT,
    KIND_LOST,
    KIND_RECOVERY_BEGIN,
    KIND_RECOVERY_END,
    KIND_RECOVERY_RESTORE,
    KIND_RPCN_ADVANCE,
    KIND_RPCN_APPLY,
    KIND_SIGNOFF,
    SAMPLE_FIELDS,
    Sampler,
    TraceLog,
    availability_timeline,
    chrome_trace,
    recovery_episodes,
    timeline_summary,
    validate_chrome_trace,
)
from repro.system.machine import Machine
from repro.workloads import apache

ALL_KINDS = (
    KIND_EDGE, KIND_ANNOUNCE, KIND_SIGNOFF, KIND_RPCN_ADVANCE,
    KIND_RPCN_APPLY, KIND_INJECT, KIND_LOST, KIND_DETECT,
    KIND_RECOVERY_BEGIN, KIND_RECOVERY_RESTORE, KIND_RECOVERY_END,
)


def _machine(*, seed: int = 1, faulted: bool = True) -> Machine:
    config = SystemConfig.tiny()
    machine = Machine(config, apache(num_cpus=4, scale=64, seed=seed),
                      seed=seed)
    if faulted:
        # The same schedule test_timeout_modes uses: guarantees at least
        # one timeout-detected drop and one full recovery episode.
        machine.inject_transient_faults(period=2_500, first_at=1_200)
    return machine


def _run_fields(machine: Machine, result):
    """The deterministic fingerprint of one run (oracle for identity)."""
    return (
        result.cycles,
        result.committed_instructions,
        result.completed,
        result.crashed,
        result.crash_reason,
        result.recoveries,
        result.lost_instructions,
        result.reexecuted_instructions,
        machine.stats.counter("net.messages_sent").value,
        machine.stats.counter("net.messages_delivered").value,
        machine.stats.sum_counters(".cache.timeouts"),
        machine.stats.sum_counters(".stores_logged"),
        machine.controllers.rpcn,
    )


def _traced_run(*, sample_cadence=None, faulted: bool = True, seed: int = 1):
    machine = _machine(seed=seed, faulted=faulted)
    trace = TraceLog()
    machine.attach_tracer(trace)
    sampler = None
    if sample_cadence:
        sampler = Sampler(machine, sample_cadence)
        sampler.start()
    result = machine.run(2_000, max_cycles=5_000_000)
    return machine, result, trace, sampler


# ----------------------------------------------------------------------
# Completeness: the journal sees the whole lifecycle
# ----------------------------------------------------------------------

def test_faulted_run_emits_every_record_kind():
    machine, result, trace, _ = _traced_run()
    assert not result.crashed
    assert result.recoveries > 0, "scenario must exercise recovery"
    counts = trace.counts()
    for kind in ALL_KINDS:
        assert counts.get(kind, 0) > 0, f"no {kind} records"
    # Every node edges at every checkpoint, so edges are a multiple of 4.
    assert counts[KIND_EDGE] % 4 == 0
    assert counts[KIND_RECOVERY_BEGIN] == result.recoveries
    assert counts[KIND_RECOVERY_END] == result.recoveries
    assert counts[KIND_INJECT] == machine.stats.counter(
        "net.messages_lost").value == counts[KIND_LOST]


def test_records_are_cycle_ordered_and_typed():
    _, _, trace, _ = _traced_run()
    cycles = [r.cycle for r in trace.records]
    assert cycles == sorted(cycles)
    for record in trace.records:
        assert isinstance(record.cycle, int)
        d = record.to_dict()
        assert d["kind"] == record.kind and d["cycle"] == record.cycle


def test_chrome_trace_passes_its_own_schema_check():
    _, result, trace, _ = _traced_run()
    payload = chrome_trace(trace, num_nodes=4)
    assert validate_chrome_trace(payload) == []
    events = payload["traceEvents"]
    names = {e["name"] for e in events}
    # Named tracks for the system process and all four nodes.
    metas = [e for e in events if e["ph"] == "M"]
    assert {e["args"]["name"] for e in metas if e["name"] == "process_name"} \
        == {"system", "node 0", "node 1", "node 2", "node 3"}
    # Recovery episodes render as duration slices.
    slices = [e for e in events if e["ph"] == "X"
              and e["name"] == "recovery episode"]
    assert len(slices) == result.recoveries
    assert "ckpt.edge" in names and "fault.inject" in names
    # One slice per validated epoch, each at least a cycle wide.
    epochs = [e for e in events if e["ph"] == "X"
              and e["name"].startswith("epoch ")]
    assert epochs
    assert len({e["args"]["epoch"] for e in epochs}) == len(epochs)
    assert all(e["dur"] >= 1 for e in epochs)


def test_reading_the_journal_back_leaves_it_unchanged():
    """The timeline functions and the Chrome-trace export are readers: a
    faulted run's records, and the export built from them, are the same
    before and after :func:`recovery_episodes` and
    :func:`timeline_summary` walk the journal."""
    _, result, trace, _ = _traced_run()
    assert result.recoveries > 0

    def snapshot():
        return ([r.to_dict() for r in trace.records],
                json.dumps(chrome_trace(trace, num_nodes=4), sort_keys=True))

    before = snapshot()
    recovery_episodes(trace)
    timeline_summary(trace, num_nodes=4)
    assert snapshot() == before


def test_attach_tracer_before_or_after_injecting():
    """The journal lives on the simulator, so a tracer attached before the
    injectors exist records the same injections and losses as one
    attached after them."""
    def journal(attach_first: bool):
        machine = _machine(faulted=False)
        trace = TraceLog()
        if attach_first:
            machine.attach_tracer(trace)
        machine.inject_transient_faults(period=2_500, first_at=1_200)
        machine.inject_switch_kill(at_cycle=3_000)
        if not attach_first:
            machine.attach_tracer(trace)
        machine.run(2_000, max_cycles=5_000_000)
        return [r.to_dict() for r in trace.records
                if r.kind in (KIND_INJECT, KIND_LOST)]

    first = journal(attach_first=True)
    faults = {r["fault"] for r in first if r["kind"] == KIND_INJECT}
    assert faults == {"DropMessageFault", "KillSwitchFault"}
    assert any(r["kind"] == KIND_LOST for r in first)
    assert first == journal(attach_first=False)


def test_validate_chrome_trace_rejects_bad_payloads():
    assert validate_chrome_trace({}) == ["traceEvents missing or empty"]
    bad = {"traceEvents": [
        {"ph": "i", "ts": 5, "pid": 0, "tid": 0},
        {"ph": "i", "ts": 3, "pid": 0, "tid": 0},       # not monotonic
        {"ph": "X", "ts": 4, "pid": 0, "tid": 0},       # X without dur
        {"ph": "i", "pid": 0, "tid": 0},                # missing ts
    ]}
    problems = validate_chrome_trace(bad)
    assert any("ts 3 < previous 5" in p for p in problems)
    assert any("lacks a positive dur" in p for p in problems)
    assert any("missing 'ts'" in p for p in problems)


# ----------------------------------------------------------------------
# Invisibility: observation never perturbs the run
# ----------------------------------------------------------------------

@pytest.mark.parametrize("faulted", [False, True],
                         ids=["clean", "transient"])
def test_tracing_is_bit_identical(faulted):
    plain = _machine(faulted=faulted)
    plain_result = plain.run(2_000, max_cycles=5_000_000)
    traced, traced_result, trace, _ = _traced_run(faulted=faulted)
    assert _run_fields(plain, plain_result) == \
        _run_fields(traced, traced_result)
    # The tracer adds zero kernel events — the schedule is untouched.
    assert plain.sim.events_dispatched == traced.sim.events_dispatched
    assert len(trace) > 0


def test_sampler_is_result_identical():
    plain = _machine()
    plain_result = plain.run(2_000, max_cycles=5_000_000)
    sampled, sampled_result, _, sampler = _traced_run(sample_cadence=500)
    # The sampler schedules (read-only) events, so the dispatch count
    # differs — but every simulated outcome must not.
    assert _run_fields(plain, plain_result) == \
        _run_fields(sampled, sampled_result)
    rows = sampler.rows()
    assert len(rows) >= plain_result.cycles // 500 - 1
    for row in rows[:3]:
        assert set(row) == set(SAMPLE_FIELDS)
    assert rows[-1]["committed_instructions"] > 0
    assert sampler.peak("clb_entries") > 0


def test_buffer_depth_counts_in_express_flights():
    """An in-express flight holds no residency entries for the switches
    it advances through arithmetically, so ``Network.buffer_depth`` (and
    therefore the Sampler's ``net_buffer_depth`` series) reconstructs its
    occupancy from the segment timetable.  Depth sampled mid-flight must
    match a hop-by-hop (held) run cycle for cycle."""
    from repro.interconnect.messages import Message, MessageKind
    from repro.interconnect.network import Network
    from repro.interconnect.routing import RoutingTable
    from repro.interconnect.topology import TorusTopology
    from repro.sim.kernel import Simulator

    def depth_series(express: bool):
        sim = Simulator()
        topo = TorusTopology(8, 8)
        net = Network(sim, topo, RoutingTable(topo))
        if not express:
            net.express_hold()
        for nid in range(64):
            net.attach(nid, lambda m: None)
        net.send(Message(MessageKind.GETS, src=0, dst=27))
        series = []
        for cycle in range(1, 120):
            sim.run(limit=cycle)
            series.append(net.buffer_depth())
        flights = net.c_express_flights.value
        sim.run()
        return series, flights

    express_series, express_flights = depth_series(True)
    reference_series, _ = depth_series(False)
    assert express_flights > 0, "the flight never went express"
    assert express_series == reference_series
    assert max(express_series) > 0, "depth never saw the flight buffered"


def test_sampler_views_and_validation():
    _, _, _, sampler = _traced_run(sample_cadence=1_000)
    fh = io.StringIO()
    sampler.to_csv(fh)
    lines = fh.getvalue().strip().split("\n")
    assert lines[0] == ",".join(SAMPLE_FIELDS)
    assert len(lines) == len(sampler.rows()) + 1
    payload = json.loads(sampler.to_json())
    assert payload["cadence"] == 1_000
    assert len(payload["samples"]) == len(sampler.rows())
    with pytest.raises(ValueError):
        Sampler(_machine(), 0)


# ----------------------------------------------------------------------
# Timelines
# ----------------------------------------------------------------------

def test_availability_timeline_and_summary():
    _, result, trace, _ = _traced_run()
    rows = availability_timeline(trace, num_nodes=4)
    assert rows, "no epochs extracted"
    assert [r["epoch"] for r in rows] == \
        list(range(1, len(rows) + 1))
    for row in rows:
        if row["signoff_lag"] is not None:
            assert row["signoff_cycle"] == \
                row["edge_cycle"] + row["signoff_lag"]
            assert row["signoff_lag"] >= 0
    episodes = recovery_episodes(trace)
    assert len(episodes) == result.recoveries
    for ep in episodes:
        assert ep["span"] == ep["end_cycle"] - ep["begin_cycle"] > 0
        assert ep["begin_cycle"] >= ep["detect_cycle"]
        if ep["detection_window"] is not None:
            assert ep["detection_window"] >= 0
        assert ep["reason"]
    summary = timeline_summary(trace, num_nodes=4)
    assert summary["recoveries"] == result.recoveries
    assert summary["epochs_validated"] <= summary["epochs"]
    assert summary["max_signoff_lag"] >= summary["mean_signoff_lag"] >= 0
    assert summary["max_recovery_span"] == max(e["span"] for e in episodes)


# ----------------------------------------------------------------------
# Campaign telemetry
# ----------------------------------------------------------------------

def _tiny_spec(seed: int = 1) -> RunSpec:
    return RunSpec(workload="apache", instructions=1_500, warmup=0,
                   seed=seed, scale=64, torus_width=2, torus_height=2)


def test_execute_run_attaches_telemetry():
    record = execute_run(_tiny_spec())
    t = record.telemetry
    assert t["wall_seconds"] > 0
    assert t["events_dispatched"] > 0
    assert t["sim_cycles_per_second"] > 0
    assert t["peak_clb_entries"] > 0
    # Telemetry is bookkeeping, not results: two runs of the same spec
    # agree on the result key even though their telemetry differs.
    again = execute_run(_tiny_spec())
    assert record.result_key() == again.result_key()


def test_telemetry_survives_the_store_round_trip(tmp_path):
    record = execute_run(_tiny_spec())
    rebuilt = RunRecord.from_dict(record.to_dict())
    assert rebuilt.telemetry == record.telemetry
    store = ResultStore(str(tmp_path / "t.jsonl"))
    store.append(record)
    reloaded = ResultStore(str(tmp_path / "t.jsonl")).get(record.spec_hash)
    assert reloaded.telemetry == record.telemetry
    # Old stores predate the field: records without it load with {}.
    data = record.to_dict()
    del data["telemetry"]
    assert RunRecord.from_dict(data).telemetry == {}


def test_aggregate_telemetry():
    records = [execute_run(_tiny_spec(seed=s)) for s in (1, 2)]
    legacy = execute_run(_tiny_spec(seed=3))
    legacy.telemetry = {}
    agg = aggregate_telemetry(records + [legacy])
    assert agg["runs_with_telemetry"] == 2
    assert agg["total_wall_seconds"] == pytest.approx(
        sum(r.telemetry["wall_seconds"] for r in records))
    assert agg["total_events_dispatched"] == \
        sum(r.telemetry["events_dispatched"] for r in records)
    assert agg["peak_clb_entries"] == \
        max(r.telemetry["peak_clb_entries"] for r in records)
    assert aggregate_telemetry([legacy]) == {"runs_with_telemetry": 0}


def test_runner_heartbeat_line():
    """The liveness line a stalled-looking parallel sweep emits: done
    count, named in-flight cells (bounded), and throughput-so-far."""
    lines = []
    runner = Runner(progress=lines.append, heartbeat_s=5.0)
    runner._finished_records = [execute_run(_tiny_spec())]
    pending = {object(): _tiny_spec(seed=s) for s in (2, 3, 4, 5, 6)}
    runner._heartbeat(pending, done=1, total=6)
    (line,) = lines
    assert line.startswith("heartbeat: 1/6 done, 5 in flight")
    assert "apache/s2" in line and "+2 more" in line
    assert "sim-cycles/s" in line


# ----------------------------------------------------------------------
# CLI: repro trace / repro profile exit discipline
# ----------------------------------------------------------------------

def _cli(argv):
    out = io.StringIO()
    code = cli_main(argv, out=out)
    return code, out.getvalue()

TRACE_ARGS = ["trace", "--torus", "2x2", "--scale", "64",
              "--instructions", "2000", "--warmup", "0",
              "--fault", "transient", "--period", "2500",
              "--fault-at", "1200"]


def test_cli_trace_exports_and_summarises(tmp_path):
    trace_path = tmp_path / "trace.json"
    series_path = tmp_path / "series.csv"
    code, text = _cli(TRACE_ARGS + ["--timeline", "--cadence", "1000",
                                    "--out", str(trace_path),
                                    "--series", str(series_path)])
    assert code == 0
    assert "availability timeline" in text
    assert "trace record counts" in text
    payload = json.loads(trace_path.read_text())
    assert validate_chrome_trace(payload) == []
    header = series_path.read_text().splitlines()[0]
    assert header == ",".join(SAMPLE_FIELDS)


def test_cli_trace_stdout_is_pure_json():
    code, text = _cli(TRACE_ARGS + ["--out", "-"])
    assert code == 0
    payload = json.loads(text)     # the whole stream must parse
    assert validate_chrome_trace(payload) == []


def test_cli_trace_rejects_bad_spec():
    code, text = _cli(["trace", "--torus", "1x1"])
    assert code == 1
    assert "bad run" in text


def test_cli_profile_json_stdout_is_pure_json():
    code, text = _cli(["profile", "--torus", "2x2", "--scale", "64",
                       "--instructions", "1500", "--warmup", "0",
                       "--no-cprofile", "--json", "-"])
    assert code == 0
    payload = json.loads(text)
    assert payload["kernel_events"]["total_dispatches"] > 0


def test_cli_profile_rejects_bad_spec():
    code, text = _cli(["profile", "--torus", "0x2"])
    assert code == 1
    assert "bad run" in text
