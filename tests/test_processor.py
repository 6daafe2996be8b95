"""Unit tests for the in-order core, driving node 0's real cache.

Each test builds a tiny machine and runs one extra :class:`Core` on node
0's cache controller, so every op goes through the core's one burst loop
and misses run the real coherence protocol.  The machine's own cores stay
idle, and its clock and validation run only where a test starts them.
"""

from repro.processor.core import Core
from repro.sim.stats import StatsRegistry
from repro.workloads import RandomTester, apache
from repro.workloads.base import OP_GAP_SHIFT
from tests.conftest import Driver, tiny_machine


def make_core(workload=None, io_hooks=None, **cfg_kw):
    workload = workload or apache(num_cpus=4, scale=64, seed=3)
    machine = tiny_machine(workload=workload, **cfg_kw)
    stats = StatsRegistry()
    core = Core(machine.sim, 0, machine.config, machine.nodes[0].cache,
                workload, stats, io_hooks=io_hooks)
    return machine, core, stats


class RetireLog:
    """I/O hooks with a boundary at every position, so the core reports
    each retirement: ``steps`` is the retired walk, as (position before,
    instructions retired), with ``None`` where a recovery rewound it."""

    def __init__(self):
        self.steps = []

    def next_boundary(self, position):
        return position + 1

    def on_retire(self, core, retired):
        self.steps.append((core.position - retired, retired))

    def assert_walks_chain(self, workload, rewound_to, final):
        """Every retirement retires the reference op at its position and
        starts where the one before ended, or, after the rewind, at the
        restored position; the walk ends at ``final``."""
        position = 0
        for step in self.steps:
            if step is None:
                position = rewound_to
                continue
            assert step == (position, workload.op(0, position).gap + 1)
            position += step[1]
        assert position == final


def op_window_start(core):
    """The position of the first op in the core's live op buffer."""
    head, ops, k, _ = core._op_buf
    return head - sum((op >> OP_GAP_SHIFT) + 1 for op in ops[:k])


def retirement_walk(workload, start: int, target: int):
    """Every position the op stream retires through from ``start`` until
    it reaches ``target``: each op advances position by ``gap + 1``."""
    positions = [start]
    while positions[-1] < target:
        positions.append(
            positions[-1] + workload.op(0, positions[-1]).gap + 1)
    return positions


def run_to_target(machine, core):
    """Step ``machine`` until ``core`` reaches its target; returns (finish
    cycle, cycles spent with a miss outstanding).  A blocking core
    retires nothing past an outstanding miss."""
    sim, mshrs = machine.sim, core.cache.mshrs
    finish = []
    core.on_target_reached = lambda nid: finish.append(sim.now)
    blocked_cycles = 0
    blocked_at = None
    while not finish and sim.pending():
        before, blocked = sim.now, bool(mshrs)
        sim.step()
        if blocked:
            blocked_cycles += sim.now - before
            if blocked_at is None:
                blocked_at = core.position
            assert core.position == blocked_at or not mshrs
        else:
            blocked_at = None
    assert finish, "core never reached its target"
    return finish[0], blocked_cycles


def test_core_executes_to_target():
    machine, core, stats = make_core()
    core.start(5_000)
    machine.sim.run(limit=1_000_000)
    assert core.done
    assert core.position >= 5_000
    assert stats.counter("node0.core.instructions_executed").value == core.position


def test_runtime_reflects_one_ipc_plus_memory():
    machine, core, _ = make_core()
    core.start(3_000)
    finish, blocked_cycles = run_to_target(machine, core)
    # One cycle per instruction, plus every cycle blocked on a miss.
    assert blocked_cycles > 0
    assert finish == core.position + blocked_cycles


def test_misses_block_and_add_latency():
    machine, core, _ = make_core(RandomTester(num_cpus=4, seed=1, blocks=4))
    core.start(200)
    finish, blocked_cycles = run_to_target(machine, core)
    misses = core.cache.c_misses.value
    assert misses >= 4  # at least the four cold misses
    # One core alone: memory serves every miss.
    assert blocked_cycles >= misses * machine.config.memory_latency
    assert finish == core.position + blocked_cycles


def test_throttle_retries_same_op():
    # A two-entry CLB fills once the clock opens a new interval; stores
    # that must log then throttle until validation frees entries.  A full
    # CLB stretches time but must not change what executes.
    states = {}
    for clb_bytes in (2 * 72, 32 * 1024):
        wl = RandomTester(num_cpus=4, seed=2, blocks=4)
        machine, core, stats = make_core(wl, clb_size_bytes=clb_bytes)
        Driver(machine).start_safetynet()
        core.start(3_000)
        throttled_at = None
        while not core.done and machine.sim.pending():
            machine.sim.step()
            if throttled_at is None and core.c_store_stall_cycles.value:
                throttled_at = core.position
                assert wl.op(0, throttled_at).is_store
        states[clb_bytes] = (core.architected_state(),
                             stats.counter("node0.core.clb_throttle_cycles").value,
                             throttled_at)
    (small_state, small_stall, throttled_at), (big_state, big_stall, _) = (
        states[2 * 72], states[32 * 1024])
    assert throttled_at is not None and big_stall == 0
    assert small_stall > 0 and small_stall % 100 == 0
    # The throttled access was retried, not skipped: the register file
    # folds in every retired op, and it matches the unthrottled run.
    assert small_state == big_state


def test_mesi_throttle_retries_same_op():
    """The same under mesi, where a store hit on an E block upgrades to M
    silently: silent upgrades and throttled stores both run through the
    cache's one store, and the throttled run retires exactly what the
    large-CLB run retires."""
    runs = {}
    for clb_bytes in (2 * 72, 32 * 1024):
        wl = RandomTester(num_cpus=4, seed=2, blocks=4)
        machine, core, _ = make_core(wl, clb_size_bytes=clb_bytes,
                                     protocol="mesi")
        Driver(machine).start_safetynet()
        core.start(3_000)
        while not core.done and machine.sim.pending():
            machine.sim.step()
        cache = core.cache
        runs[clb_bytes] = (core.architected_state(),
                           cache.c_silent_upgrade.value,
                           cache.c_store_throttles.value)
    small_state, small_silent, small_throttles = runs[2 * 72]
    big_state, big_silent, big_throttles = runs[32 * 1024]
    assert small_silent > 0 and small_throttles > 0
    assert big_silent == small_silent and big_throttles == 0
    assert small_state == big_state


def test_edge_snapshots_and_checkpoint_stall():
    machine, core, stats = make_core()
    sim = machine.sim
    core.start(10_000)
    sim.run(limit=2_000)
    core.on_edge(2)
    assert 2 in core.snapshots
    pos_at_edge, regs_at_edge = core.snapshots[2]
    assert pos_at_edge <= core.position
    sim.run(limit=20_000)
    assert stats.counter("node0.core.register_ckpt_stall_cycles").value == 100


def test_recover_to_restores_position_and_registers():
    machine, core, stats = make_core()
    sim = machine.sim
    core.start(50_000)
    sim.run(limit=3_000)
    core.on_edge(2)
    snap_pos, snap_regs = core.snapshots[2]
    sim.run(limit=9_000)
    assert core.position > snap_pos
    core.freeze()
    # Let an in-flight miss land: the cache is not rolled back here, and
    # re-execution must not re-issue a miss its MSHR still holds.
    Driver(machine).run_until(lambda: not core.cache.mshrs)
    lost = core.recover_to(2)
    assert lost == core.c_reexecuted.value
    assert core.position == snap_pos
    assert tuple(core.registers) == snap_regs
    core.resume()
    sim.run(limit=200_000)
    assert core.done


def test_reexecution_replays_identical_op_stream():
    wl = apache(num_cpus=4, scale=64, seed=9)
    machine, core, _ = make_core(wl)
    sim = machine.sim
    walk = retirement_walk(wl, 0, 2_000)
    on_walk = set(walk)
    core.start(2_000)
    sim.run(limit=1_500)
    core.on_edge(2)
    snap_pos, _ = core.snapshots[2]
    assert snap_pos in on_walk
    sim.run(limit=3_500)
    first_run_end = core.position
    assert first_run_end > snap_pos
    core.freeze()
    Driver(machine).run_until(lambda: not core.cache.mshrs)
    core.recover_to(2)
    core.resume()
    # The replay (ops after the snapshot) is the original stream exactly:
    # pure positional generation, so every position the core passes
    # through is on the walk from the snapshot, and it ends where an
    # uninterrupted run would.
    replay = walk[walk.index(snap_pos):]
    seen = set()
    while not core.done and sim.pending():
        sim.step()
        seen.add(core.position)
    assert core.done
    assert seen <= set(replay)
    assert first_run_end in replay
    assert core.position == walk[-1]


def rewind_and_replay(snapshot_at, recover_at, *, during_miss=False):
    """Snapshot at cycle ``snapshot_at``, recover to it at ``recover_at``
    (with the core's miss still outstanding if ``during_miss``), and run
    to the target, logging every retirement.  Returns the workload, the
    core, the log, the snapshot position and the op window live at the
    recovery (its first position and ``ops_end``)."""
    wl = apache(num_cpus=4, scale=64, seed=9)
    log = RetireLog()
    machine, core, _ = make_core(wl, io_hooks=log)
    sim = machine.sim
    core.start(3_000)
    sim.run(limit=snapshot_at)
    core.on_edge(2)
    snap_pos, _ = core.snapshots[2]
    sim.run(limit=recover_at)
    core.freeze()
    if during_miss:
        assert core._miss_outstanding
        # The op the miss consumed never retires: its completion lands
        # after the rewind and is discarded.
        retired = len(log.steps)
        core.recover_to(2)
        Driver(machine).run_until(lambda: not core.cache.mshrs)
        assert len(log.steps) == retired
    else:
        Driver(machine).run_until(lambda: not core.cache.mshrs)
        core.recover_to(2)
    window = (op_window_start(core), core._op_buf[3])
    log.steps.append(None)
    core.resume()
    while not core.done and sim.pending():
        sim.step()
    assert core.done
    return wl, core, log, snap_pos, window


def test_rewind_inside_the_live_op_window_replays_the_chain():
    wl, core, log, snap_pos, (start, end) = rewind_and_replay(2_000, 3_000)
    assert start <= snap_pos < end
    log.assert_walks_chain(wl, snap_pos, core.position)


def test_rewind_before_the_live_op_window_replays_the_chain():
    wl, core, log, snap_pos, (start, _) = rewind_and_replay(1_500, 5_000)
    assert snap_pos < start
    log.assert_walks_chain(wl, snap_pos, core.position)


def test_rewind_during_a_miss_replays_the_chain():
    wl, core, log, snap_pos, _ = rewind_and_replay(1_500, 3_000,
                                                   during_miss=True)
    log.assert_walks_chain(wl, snap_pos, core.position)


def test_outstanding_checkpoint_throttle():
    machine, core, stats = make_core()
    sim = machine.sim
    core.start(10**9)
    sim.run(limit=1_000)
    # Push CCN far ahead of the recovery point: the core must stall.
    for ccn in range(2, 8):
        core.on_edge(ccn)
    assert core.throttled
    # An in-flight miss may still retire its op; nothing issues after it.
    Driver(machine).run_until(lambda: not core.cache.mshrs)
    pos = core.position
    sim.run(limit=50_000)
    assert core.position == pos  # no forward progress while throttled
    core.on_rpcn(4)  # 7 - 4 <= 4 outstanding: resume
    assert not core.throttled
    sim.run(limit=60_000)
    assert core.position > pos


def test_rpcn_advance_frees_old_snapshots():
    _, core, _ = make_core()
    for ccn in range(2, 6):
        core.on_edge(ccn)
    core.on_rpcn(4)
    assert sorted(core.snapshots) == [4, 5]


def test_done_core_stays_idle():
    machine, core, stats = make_core()
    sim, cache = machine.sim, core.cache
    core.start(100)
    sim.run(limit=10_000)
    assert core.done
    executed = stats.counter("node0.core.instructions_executed").value
    accesses = (cache.c_loads.value, cache.c_stores.value, cache.c_misses.value)
    sim.run(limit=50_000)
    assert core.position == executed
    assert stats.counter("node0.core.instructions_executed").value == executed
    assert (cache.c_loads.value, cache.c_stores.value,
            cache.c_misses.value) == accesses
