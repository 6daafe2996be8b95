"""Acceptance suite for pluggable protocols and arbitration policies.

Three layers of evidence, matching the refactor's promises:

1. **Bit identity** — every golden cell replays its committed record
   exactly: every RunResult field, every registered counter, and the
   kernel dispatch count (tests/data/protocol_golden.json, captured by
   tests/gen_protocol_golden.py before the code each cell pins changed).
   Default-valued specs also keep their pre-refactor hashes, so every
   existing ResultStore stays valid.
2. **Protocol invariants** — mesi/moesi complete full runs (fault-free
   and through recovery) and a quiesced machine satisfies the coherence
   invariants: single owner, E implies no other copy anywhere, no dirty
   block silently dropped (E copies match memory).
3. **Arbiter behaviour** — WRR's rotation schedule actually rotates and
   is stable within a cycle; priority arbitration bounds data starvation
   by the aging limit; express hops stay result-identical to hop-by-hop
   routing (the same machine under one ``Network.express_hold()``) under
   non-FIFO arbiters.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.coherence.protocol import PROTOCOLS, resolve_protocol
from repro.coherence.snooping import SnoopingSystem
from repro.coherence.state import CacheState
from repro.experiments import RunSpec, Sweep, build_machine
from repro.experiments.manifest import CampaignEntry
from repro.interconnect.arbiter import (
    ARBITERS,
    DIRECTIONS,
    PriorityArbiter,
    WrrArbiter,
    classify_direction,
    resolve_arbiter,
)
from repro.interconnect.messages import MessageKind
from repro.interconnect.topology import HalfSwitchId

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "protocol_golden.json")

with open(GOLDEN_PATH, encoding="utf-8") as _fh:
    GOLDEN_RECORDS = json.load(_fh)["records"]

RESULT_FIELDS = (
    "cycles", "committed_instructions", "target_instructions", "completed",
    "crashed", "crash_reason", "recoveries", "lost_instructions",
    "reexecuted_instructions",
)

#: Pre-refactor hash constants.  If any of these move, every existing
#: result store silently orphans its records — fail loudly instead.
DEFAULT_SPEC_HASH = "50268841473bc14e"
DEFAULT_CELL_HASH = "0ab01d8be8ee8a66"


def _golden_id(record):
    spec = record["spec"]
    shape = f"{spec.get('torus_width', '?')}x{spec.get('torus_height', '?')}"
    parts = [spec["workload"], f"s{spec['seed']}", shape, spec["fault"]]
    # Cells that differ only in a non-default knob name it (the original
    # cells set none of these, so their ids are unchanged).
    if spec.get("protocol"):
        parts.append(spec["protocol"])
    if spec.get("detection_latency"):
        parts.append(f"dl{spec['detection_latency']}")
    if spec.get("clb_bytes"):
        parts.append(f"clb{spec['clb_bytes']}")
    parts.extend(f"{k}={v}" for k, v in spec["config_overrides"].items())
    return "-".join(parts)


# ---------------------------------------------------------------------------
# 1. Bit identity with the committed goldens
# ---------------------------------------------------------------------------
def _is_mosi(record) -> bool:
    return record["spec"].get("protocol") in (None, "mosi")


def _assert_replays_golden(record) -> None:
    spec = RunSpec.from_dict(record["spec"])
    assert spec.spec_hash == record["spec_hash"], \
        "spec hashing changed: existing stores would orphan their records"
    machine = build_machine(spec)
    result = machine.run(spec.instructions, max_cycles=spec.max_cycles)
    for fld in RESULT_FIELDS:
        assert getattr(result, fld) == record["result"][fld], \
            f"{fld} diverged from the golden"
    assert machine.stats.snapshot() == record["counters"], \
        "counter snapshot diverged (values or registered-counter set)"
    assert machine.sim.events_dispatched == record["events_dispatched"], \
        "kernel dispatch count diverged"


@pytest.mark.parametrize("record",
                         [r for r in GOLDEN_RECORDS if _is_mosi(r)],
                         ids=_golden_id)
def test_mosi_bit_identical_to_golden(record):
    _assert_replays_golden(record)


@pytest.mark.parametrize("record",
                         [r for r in GOLDEN_RECORDS if not _is_mosi(r)],
                         ids=_golden_id)
def test_mesi_moesi_bit_identical_to_golden(record):
    _assert_replays_golden(record)


def test_backpressure_goldens_stall():
    """The small-buffer cells pin switch back-pressure: each record's run
    found a full switch buffer and retried the arrival."""
    records = [r for r in GOLDEN_RECORDS
               if "switch_buffer_messages" in r["spec"]["config_overrides"]]
    assert len(records) == 4
    for record in records:
        assert record["counters"]["net.buffer_stalls"] > 0, _golden_id(record)


def test_default_spec_hashes_unchanged():
    spec = RunSpec()
    assert spec.spec_hash == DEFAULT_SPEC_HASH
    assert spec.cell_hash == DEFAULT_CELL_HASH
    # The new axes stay out of the canonical form while defaulted...
    assert "protocol" not in spec.canonical()
    assert "arbiter" not in spec.canonical()
    # ...and fork the hash the moment they are set.
    assert spec.with_(protocol="mesi").spec_hash != DEFAULT_SPEC_HASH
    assert spec.with_(arbiter="wrr").spec_hash != DEFAULT_SPEC_HASH
    assert spec.with_(protocol="mosi").canonical()["protocol"] == "mosi"


def test_spec_rejects_unknown_protocol_and_arbiter():
    with pytest.raises(ValueError, match="unknown protocol"):
        RunSpec(protocol="mesif")
    with pytest.raises(ValueError, match="unknown arbiter"):
        RunSpec(arbiter="lottery")


def test_registries_and_resolvers():
    assert set(PROTOCOLS) == {"mosi", "mesi", "moesi"}
    assert set(ARBITERS) == {"fifo", "wrr", "priority"}
    assert resolve_protocol("mesi").has_exclusive
    assert not resolve_protocol("mosi").has_exclusive
    # Arbiters are stateful: the registry hands out fresh instances.
    assert resolve_arbiter("wrr") is not resolve_arbiter("wrr")
    with pytest.raises(ValueError):
        resolve_protocol("nope")
    with pytest.raises(ValueError):
        resolve_arbiter("nope")


# ---------------------------------------------------------------------------
# 2. MESI/MOESI complete runs and hold the coherence invariants
# ---------------------------------------------------------------------------
_FAULT_CASES = [
    ("none", None, None),
    # Gentle rates: one recovery the run can absorb (the golden matrix's
    # period-2500 transient deliberately outruns recovery on 4x4).
    ("transient", 60_000, 9_000),
    ("switch", None, 8_000),
]


@pytest.mark.parametrize("protocol", ["mesi", "moesi"])
@pytest.mark.parametrize("fault,period,fault_at", _FAULT_CASES,
                         ids=[f[0] for f in _FAULT_CASES])
def test_protocol_invariants_through_recovery(protocol, fault, period,
                                              fault_at):
    spec = RunSpec(workload="apache", instructions=2_000, seed=1, scale=64,
                   torus_width=4, torus_height=4, protocol=protocol,
                   fault=fault, fault_period=period, fault_at=fault_at)
    machine = build_machine(spec)
    result = machine.run(spec.instructions, max_cycles=spec.max_cycles)
    assert result.completed and not result.crashed
    if fault != "none":
        assert result.recoveries >= 1, "fault never exercised recovery"
    # Invariants are only meaningful on a drained machine: quiesce first
    # (in-flight COPYBACKs legitimately leave the directory mid-handoff).
    machine.quiesce()
    machine.check_coherence_invariants()
    fills = sum(n.cache.c_fill_e.value for n in machine.nodes)
    assert fills > 0, f"{protocol} never used its E state"


def test_mesi_reduces_upgrade_traffic():
    """The E state's point: stores to private blocks upgrade silently."""
    def upgrades(protocol):
        spec = RunSpec(workload="apache", instructions=2_000, seed=1,
                       scale=64, torus_width=4, torus_height=4,
                       protocol=protocol)
        machine = build_machine(spec)
        result = machine.run(spec.instructions, max_cycles=spec.max_cycles)
        assert result.completed
        networked = sum(n.cache.c_upgrades.value for n in machine.nodes)
        silent = sum(n.cache.c_silent_upgrade.value for n in machine.nodes)
        return networked, silent

    mosi_networked, mosi_silent = upgrades("mosi")
    mesi_networked, mesi_silent = upgrades("mesi")
    assert mosi_silent == 0                      # mosi has no E state
    assert mesi_silent > 0
    assert mesi_networked < mosi_networked, \
        "mesi should convert some networked upgrades into silent ones"


@pytest.mark.parametrize("arbiter", ["wrr", "priority"])
def test_arbiters_complete_runs_with_invariants(arbiter):
    spec = RunSpec(workload="apache", instructions=2_000, seed=1, scale=64,
                   torus_width=2, torus_height=2, arbiter=arbiter,
                   protocol="mesi")
    machine = build_machine(spec)
    result = machine.run(spec.instructions, max_cycles=spec.max_cycles)
    assert result.completed and not result.crashed
    machine.quiesce()
    machine.check_coherence_invariants()


@pytest.mark.parametrize("arbiter", ["wrr", "priority"])
def test_express_hops_equivalent_under_arbiter(arbiter):
    """Contention materialises express flights before the chain is
    re-resolved, so express routing must not change results under any
    policy — the same guarantee the fifo path already had."""
    def run(express):
        spec = RunSpec(workload="apache", instructions=1_500, seed=2,
                       scale=64, torus_width=2, torus_height=2,
                       arbiter=arbiter)
        machine = build_machine(spec)
        if not express:
            machine.network.express_hold()  # hop-by-hop throughout
        result = machine.run(spec.instructions, max_cycles=spec.max_cycles)
        return (result.cycles, result.committed_instructions,
                result.completed, result.recoveries)

    assert run(True) == run(False)


# ---------------------------------------------------------------------------
# 3. Arbiter unit behaviour
# ---------------------------------------------------------------------------
class _StubMsg:
    def __init__(self, msg_id, kind):
        self.msg_id = msg_id
        self.kind = kind


class _StubFlight:
    def __init__(self, mid, kind=MessageKind.GETS, direction="inj"):
        self.mid = mid
        self.msg = _StubMsg(mid, kind)
        self.direction = direction


def _direction_of(flight):
    return flight.direction


def test_wrr_rotates_service_order_across_cycles():
    arb = WrrArbiter()
    # Default schedule: inj twice, every other direction once.
    assert arb.schedule == ("inj", "inj", "east", "west", "north", "south",
                            "cross")
    chain = [_StubFlight(mid, direction=d)
             for mid, d in enumerate(DIRECTIONS)]
    first_serve = []
    for now in range(len(arb.schedule)):
        cycle_chain = list(chain)
        arb.order_chain("link", cycle_chain, now=now,
                        direction_of=_direction_of)
        first_serve.append(cycle_chain[0].direction)
        # Re-resolution within the same cycle must be stable.
        again = list(chain)
        arb.order_chain("link", again, now=now, direction_of=_direction_of)
        assert [f.mid for f in again] == [f.mid for f in cycle_chain]
    # One full sweep of the schedule serves every direction first at
    # some point, weighted by its rotation share: inj (weight 2) wins
    # twice as many cycles as any single-weight direction.
    assert set(first_serve) == set(DIRECTIONS)
    assert first_serve.count("inj") == 2
    assert first_serve.count("south") == 1


def test_wrr_weight_expands_rotation_share():
    arb = WrrArbiter(weights={"east": 3, "inj": 1})
    assert arb.schedule.count("east") == 3
    assert arb.schedule.count("inj") == 1
    assert arb.rank("east", arb.schedule.index("east")) == 0


def test_wrr_per_link_offsets_are_independent():
    arb = WrrArbiter()
    a = [_StubFlight(0, direction="east"), _StubFlight(1, direction="inj")]
    for now in range(3):
        arb.order_chain("linkA", list(a), now=now,
                        direction_of=_direction_of)
    # linkB never contended: its offset is still at the schedule start.
    b = [_StubFlight(0, direction="east"), _StubFlight(1, direction="inj")]
    arb.order_chain("linkB", b, now=99, direction_of=_direction_of)
    assert b[0].direction == "inj"


def test_priority_prefers_control_but_ages_data_in():
    arb = PriorityArbiter(aging_limit=4)
    data = _StubFlight(1, kind=MessageKind.DATA)
    ctrl = _StubFlight(2, kind=MessageKind.GETS)
    chain = [data, ctrl]
    arb.order_chain("link", chain, now=10, direction_of=_direction_of)
    assert [f.mid for f in chain] == [2, 1], "control must beat data"
    # Starvation bound: once the data message has waited aging_limit
    # cycles it joins the control class and message-id order decides.
    chain = [data, ctrl]
    arb.order_chain("link", chain, now=14, direction_of=_direction_of)
    assert [f.mid for f in chain] == [1, 2], \
        "aged data must stop yielding (starvation bound)"
    # Delivery pruning forgets the message's age.
    arb.note_delivery(data.msg)
    assert data.msg.msg_id not in arb._first_seen


def test_priority_orders_deliveries_control_first():
    arb = PriorityArbiter()
    data = _StubMsg(1, MessageKind.DATA)
    ctrl = _StubMsg(2, MessageKind.INV)
    ready = [data, ctrl]
    arb.order_deliveries(ready)
    assert [m.msg_id for m in ready] == [2, 1]


def test_classify_direction():
    node = ("node", 3)
    ew = lambda x, y: ("sw", HalfSwitchId("ew", x, y))
    ns = lambda x, y: ("sw", HalfSwitchId("ns", x, y))
    assert classify_direction(None, ew(0, 0), 4, 4) == "inj"
    assert classify_direction(node, ew(0, 0), 4, 4) == "inj"
    assert classify_direction(ew(0, 0), ew(1, 0), 4, 4) == "west"
    assert classify_direction(ew(1, 0), ew(0, 0), 4, 4) == "east"
    # Ring wraparound: x=3 -> x=0 still moves +x, so it enters west.
    assert classify_direction(ew(3, 0), ew(0, 0), 4, 4) == "west"
    assert classify_direction(ns(0, 0), ns(0, 1), 4, 4) == "north"
    assert classify_direction(ns(0, 1), ns(0, 0), 4, 4) == "south"
    assert classify_direction(ew(0, 0), ns(0, 0), 4, 4) == "cross"
    assert set(DIRECTIONS) >= {"inj", "east", "west", "north", "south",
                               "cross"}


# ---------------------------------------------------------------------------
# 4. Sweep axes and manifest audit
# ---------------------------------------------------------------------------
def test_protocol_and_arbiter_as_sweep_axes():
    sweep = Sweep(base=RunSpec(instructions=100),
                  grid={"protocol": ["mosi", "mesi", "moesi"],
                        "arbiter": ["fifo", "wrr"]},
                  seeds=2)
    specs = sweep.expand()
    assert len(specs) == 3 * 2 * 2
    assert len({s.spec_hash for s in specs}) == len(specs)
    entry = CampaignEntry.from_sweep(sweep)
    assert entry.protocols == ["mosi", "mesi", "moesi"]
    assert entry.arbiters == ["fifo", "wrr"]
    # Round-trip keeps the audit axes; legacy manifests default to [].
    again = CampaignEntry.from_dict(entry.to_dict())
    assert again.protocols == entry.protocols
    assert again.arbiters == entry.arbiters
    legacy = {k: v for k, v in entry.to_dict().items()
              if k not in ("protocols", "arbiters")}
    assert CampaignEntry.from_dict(legacy).protocols == []


def test_manifest_records_default_axes_as_default():
    entry = CampaignEntry.from_sweep(
        Sweep(base=RunSpec(instructions=100), grid={}, seeds=1))
    assert entry.protocols == ["default"]
    assert entry.arbiters == ["default"]


# ---------------------------------------------------------------------------
# 5. The snooping variant speaks all three protocols too
# ---------------------------------------------------------------------------
def _drive(system, fn, timeout=100_000):
    done = []
    fn(lambda *a: done.append(a))
    deadline = system.sim.now + timeout
    while not done and system.sim.now < deadline and system.sim.pending():
        system.sim.step()
    assert done, "operation never completed"
    return done[0]


def test_snooping_mesi_exclusive_fill_and_silent_upgrade():
    system = SnoopingSystem(num_caches=4, requests_per_checkpoint=8,
                            protocol="mesi")
    c0, c1 = system.caches[0], system.caches[1]
    # Cold read with no other copy anywhere: E fill.
    _drive(system, lambda cb: c0.load(0x40, cb))
    assert c0.blocks[0x40].state == CacheState.EXCLUSIVE
    assert c0.c_fill_e.value == 1
    # Store hits the E block with no bus transaction.
    before = system.bus.requests_observed
    _drive(system, lambda cb: c0.store(0x40, 77, cb))
    assert system.bus.requests_observed == before
    assert c0.blocks[0x40].state == CacheState.MODIFIED
    assert c0.c_silent_upgrade.value == 1
    # A remote read finds the silent M: mesi has no O state, so the
    # owner drops to S and ownership returns to memory (with the value).
    _drive(system, lambda cb: c1.load(0x40, cb))
    assert c0.blocks[0x40].state == CacheState.SHARED
    assert system.memory.owner.get(0x40) is None
    assert system.memory.value_of(0x40) == 77
    system.check_invariants()
    # A second cold read now sees sharers: plain S fill, not E.
    _drive(system, lambda cb: system.caches[2].load(0x40, cb))
    assert system.caches[2].blocks[0x40].state == CacheState.SHARED


def test_snooping_moesi_downgrades_to_owned():
    system = SnoopingSystem(num_caches=2, requests_per_checkpoint=8,
                            protocol="moesi")
    c0, c1 = system.caches
    _drive(system, lambda cb: c0.load(0x80, cb))
    assert c0.blocks[0x80].state == CacheState.EXCLUSIVE
    _drive(system, lambda cb: c1.load(0x80, cb))
    assert c0.blocks[0x80].state == CacheState.OWNED
    assert c0.c_downgrade.value == 1
    system.check_invariants()


@pytest.mark.parametrize("protocol", ["mosi", "mesi", "moesi"])
def test_snooping_recovery_preserves_invariants(protocol):
    import random
    system = SnoopingSystem(num_caches=4, requests_per_checkpoint=16,
                            protocol=protocol)
    rng = random.Random(11)
    last = {}
    addrs = [0x40 * i for i in range(6)]
    for _ in range(200):
        cache = system.caches[rng.randrange(4)]
        addr = rng.choice(addrs)
        if addr in cache.pending:
            continue
        if rng.random() < 0.5:
            _drive(system, lambda cb: cache.load(addr, cb))
        else:
            value = rng.randrange(1 << 20)
            last[addr] = value
            _drive(system, lambda cb: cache.store(addr, value, cb))
    system.sim.run()
    system.check_invariants()
    for addr, value in last.items():
        assert system.architected_value(addr) == value
    bounds = [b for b in (c.min_open_interval() for c in system.caches)
              if b is not None]
    rpcn = min(bounds) if bounds else system.current_interval()
    system.validate_to(rpcn)
    system.recover_to(rpcn)
    system.check_invariants()
