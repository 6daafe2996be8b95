"""The kernel's event calendar: semantics, differential fuzz, pinned runs.

The event calendar is the kernel's set of pending events (the heap in
:class:`repro.sim.kernel.Simulator`).  Three layers of evidence that it
schedules exactly what the machine asks for:

* a unit battery through every public semantic (dispatch order, limits,
  fast-forward, stop, max_events, step, cancellation), run on the one
  dispatch loop without and with a tracer (a
  :class:`~repro.sim.profile.DispatchProfile` attached);
* a randomised differential fuzz: the kernel and a naive list-scanning
  reference model replay identical schedule/cancel/run/step scripts and
  must produce identical observable traces; attaching a tracer must not
  change the trace;
* a seeds x shapes x {clean, transient, switch_kill} machine sweep whose
  runs replay records in ``tests/data/mode_golden.json``.  Those records
  were captured at the last commit that still had a second, calendar-
  queue kernel core, where both cores produced each of them; the heap
  core must keep reproducing them bit for bit (RunResult, a digest of
  every counter, final RPCN, dispatch count and peak queue depth).

Regenerate the records only to extend the sweep:
``PYTHONPATH=src python tests/gen_mode_golden.py``.
"""

import random

import pytest

from repro.sim.kernel import SimulationError, Simulator
from repro.sim.profile import DispatchProfile
from tests.gen_mode_golden import KERNEL_MATRIX, cell_id, golden, kernel_record


# ----------------------------------------------------------------------
# Unit battery: every public semantic, plain and traced dispatch loops
# (the ``sim`` fixture, tests/conftest.py)
# ----------------------------------------------------------------------

def test_dispatch_order_when_then_seq(sim):
    order = []
    sim.schedule(10, lambda: order.append("b"))
    sim.schedule(5, lambda: order.append("a"))
    sim.schedule(10, lambda: order.append("c"))
    sim.schedule(10_000, lambda: order.append("d"))
    sim.run()
    assert order == ["a", "b", "c", "d"]
    assert sim.now == 10_000
    assert sim.events_dispatched == 4


def test_zero_delay_events_run_after_same_cycle_bucket_events(sim):
    order = []

    def first():
        order.append("first")
        # Zero-delay: must run THIS cycle, after already-queued same-cycle
        # events (they carry smaller seq).
        sim.schedule(sim.now, lambda: order.append("zero-delay"))

    sim.schedule(7, first)
    sim.schedule(7, lambda: order.append("second"))
    sim.run()
    assert order == ["first", "second", "zero-delay"]
    assert sim.now == 7


def test_zero_delay_chain_stays_on_cycle(sim):
    hops = []

    def hop():
        hops.append(sim.now)
        if len(hops) < 50:
            sim.schedule_after(0, hop)

    sim.schedule(3, hop)
    sim.run()
    assert hops == [3] * 50


def test_run_limit_cuts_before_next_event(sim):
    fired = []
    sim.schedule(10, lambda: fired.append(10))
    sim.schedule(20, lambda: fired.append(20))
    assert sim.run(limit=15) == 15
    assert fired == [10]
    assert sim.pending() == 1
    assert sim.run() == 20
    assert fired == [10, 20]


def test_run_fast_forwards_to_limit_when_queue_drains(sim):
    sim.schedule(5, lambda: None)
    assert sim.run(limit=1_000) == 1_000
    assert sim.now == 1_000


def test_no_fast_forward_after_stop(sim):
    sim.schedule(5, lambda: sim.stop("done"))
    assert sim.run(limit=1_000) == 5
    assert sim.stop_reason == "done"


def test_stop_halts_before_next_event(sim):
    fired = []
    sim.schedule(1, lambda: (fired.append(1), sim.stop("halt")))
    sim.schedule(1, lambda: fired.append(2))
    sim.schedule(2, lambda: fired.append(3))
    sim.run()
    assert fired == [1]
    assert sim.pending() == 2
    sim.run()
    assert fired == [1, 2, 3]


def test_max_events_sets_stop_reason_and_resumes(sim):
    fired = []
    for i in range(5):
        sim.schedule(i + 1, lambda i=i: fired.append(i))
    assert sim.run(max_events=2) == 2
    assert fired == [0, 1]
    assert sim.stop_reason == "max_events"
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_schedule_in_past_raises(sim):
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule(5, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_after(-1, lambda: None)


def test_cancelled_events_skipped_but_counted_pending(sim):
    fired = []
    sim.schedule(5, lambda: fired.append("keep"))
    drop = sim.schedule(5, lambda: fired.append("drop"))
    far = sim.schedule(50_000, lambda: fired.append("far"))
    sim.cancel(drop)
    sim.cancel(far)
    assert sim.pending() == 3  # cancelled entries stay queued (lazily)
    sim.run()
    assert fired == ["keep"]
    assert sim.now == 5  # keep's cycle: the cancelled far entry moved nothing
    assert sim.pending() == 0


def test_cancelled_tail_leaves_clock_at_last_dispatch(sim):
    """Consuming a trailing cancelled-only cycle must not advance the
    clock (run without a limit has no fast-forward)."""
    sim.schedule(5, lambda: None)
    tail = sim.schedule(9_000, lambda: None)
    sim.cancel(tail)
    assert sim.run() == 5
    assert sim.now == 5
    # The queue is fully drained; scheduling anywhere >= now still works.
    fired = []
    sim.schedule(6, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [6]


def test_step_matches_run_semantics(sim):
    order = []
    sim.schedule(4, lambda: order.append("a"))
    sim.schedule(4, lambda: order.append("b"))
    sim.schedule(9, lambda: order.append("c"))
    assert sim.step() and order == ["a"] and sim.now == 4
    assert sim.step() and order == ["a", "b"] and sim.now == 4
    assert sim.step() and order == ["a", "b", "c"] and sim.now == 9
    assert not sim.step()
    assert sim.now == 9


def test_step_skips_cancelled_without_advancing_clock(sim):
    sim.schedule(3, lambda: None)
    sim.run()
    sim.cancel(sim.schedule(8, lambda: None))
    assert not sim.step()
    assert sim.now == 3


def test_peak_pending_high_water(sim):
    for i in range(10):
        sim.schedule(i + 1, lambda: None)
    assert sim.peak_pending == 10
    sim.run()
    assert sim.peak_pending == 10
    sim.schedule(sim.now + 1, lambda: None)
    sim.run()
    assert sim.peak_pending == 10  # never grew past the old mark


def test_tracer_times_every_dispatch(sim):
    tracer = DispatchProfile()
    sim.tracer = tracer
    sim.schedule(1, lambda: None, label="x")
    sim.schedule(1, lambda: None, label="x")
    sim.schedule(2, lambda: None, label="y")
    sim.schedule(2, lambda: None, label="y")
    sim.run()
    assert tracer.counts == {"x": 2, "y": 2}
    assert sim.events_dispatched == 4


# ----------------------------------------------------------------------
# Differential fuzz: identical scripts, identical traces
# ----------------------------------------------------------------------

class _RefEvent:
    """The reference model's own event record."""

    __slots__ = ("when", "seq", "callback", "label", "cancelled")

    def __init__(self, when, seq, callback, label):
        self.when = when
        self.seq = seq
        self.callback = callback
        self.label = label
        self.cancelled = False


class _ReferenceKernel:
    """A deliberately naive model of the kernel's contract.

    Pending events (cancelled ones included, until popped) sit in a
    flat list scanned for the least ``(when, seq)`` on every pop — no
    heap, and no code shared with :class:`Simulator`.  A cancel just
    flags the record, wherever it is.
    """

    def __init__(self) -> None:
        self.now = 0
        self.entries = []
        self.events_dispatched = 0
        self.peak_pending = 0
        self.stop_reason = None
        self._seq = 0
        self._stopped = False

    def schedule(self, when, callback, label=""):
        assert when >= self.now
        event = _RefEvent(when, self._seq, callback, label)
        self._seq += 1
        self.entries.append(event)
        self.peak_pending = max(self.peak_pending, len(self.entries))
        return event

    def schedule_after(self, delay, callback, label=""):
        return self.schedule(self.now + delay, callback, label)

    def cancel(self, event):
        event.cancelled = True

    def stop(self, reason=""):
        self._stopped = True
        self.stop_reason = reason or None

    def pending(self):
        return len(self.entries)

    def _pop(self):
        event = min(self.entries, key=lambda e: (e.when, e.seq))
        self.entries.remove(event)
        return event

    def _dispatch(self, event):
        self.now = event.when
        event.callback()
        self.events_dispatched += 1

    def run(self, limit=None, max_events=None):
        if max_events is not None and max_events < 0:
            raise SimulationError("negative max_events")
        self._stopped = False
        self.stop_reason = None
        if max_events == 0 or (limit is not None and limit < self.now):
            return self.now  # nothing to dispatch; the clock stays put
        fired = 0
        while self.entries and not self._stopped:
            if limit is not None and min(e.when for e in self.entries) > limit:
                self.now = limit
                break
            event = self._pop()
            if event.cancelled:
                continue
            self._dispatch(event)
            fired += 1
            if fired == max_events:
                self.stop_reason = "max_events"
                break
        if (limit is not None and not self.entries and not self._stopped
                and self.now < limit):
            self.now = limit
        return self.now

    def step(self):
        while self.entries:
            event = self._pop()
            if not event.cancelled:
                self._dispatch(event)
                return True
        return False

def _replay_script(sim, rng, n_ops: int, horizon: int = 1024):
    """Drive ``sim`` through a deterministic random script of schedules,
    cancels (spent handles included), runs (limits before now and zero
    budgets included) and steps; return every observable.

    ``horizon`` scales the long top-level delays: a short one packs the
    schedule into same-cycle ties, a long one spreads it out."""
    trace = []
    events = []
    counter = [0]

    def make_cb(i, nest_roll, nest_delay):
        def cb():
            trace.append(("fire", i, sim.now))
            if nest_roll < 0.3:
                j = counter[0]
                counter[0] += 1
                events.append(sim.schedule_after(
                    nest_delay, make_cb(j, 1.0, 0), f"n{j}"))
            elif nest_roll > 0.98:
                sim.stop("script-stop")
        return cb

    for _ in range(n_ops):
        op = rng.random()
        if op < 0.55:
            delay = rng.choice([0, 1, 2, 5, 10, 100, horizon, 2 * horizon,
                                20 * horizon])
            j = counter[0]
            counter[0] += 1
            events.append(sim.schedule_after(
                delay, make_cb(j, rng.random(),
                               rng.choice([0, 0, 1, 3, 50, 1_500, 9_000])),
                f"t{j}"))
        elif op < 0.65 and events:
            sim.cancel(events[rng.randrange(len(events))])
        elif op < 0.75:
            limit = sim.now + rng.choice([-7, 0, 1, 3, 17, 900, 3_000])
            trace.append(("run", sim.run(limit=limit), sim.pending()))
        elif op < 0.80:
            trace.append(("runmax",
                          sim.run(limit=sim.now + 10_000,
                                  max_events=rng.randrange(0, 8)),
                          sim.stop_reason))
        elif op < 0.93:
            trace.append(("step", sim.step(), sim.now))
        else:
            trace.append(("runfull", sim.run(limit=sim.now + 50_000),
                          sim.pending(), sim.stop_reason))
    trace.append(("final", sim.run(limit=sim.now + 10**6),
                  sim.events_dispatched, sim.pending(), sim.peak_pending))
    return trace


@pytest.mark.parametrize("horizon", [64, 1024])
@pytest.mark.parametrize("seed", range(8))
def test_fuzz_traces_identical(seed, horizon):
    kernel_trace = _replay_script(Simulator(), random.Random(seed), 150,
                                  horizon)
    model_trace = _replay_script(_ReferenceKernel(), random.Random(seed), 150,
                                 horizon)
    assert kernel_trace == model_trace


@pytest.mark.parametrize("seed", range(4))
def test_fuzz_traces_identical_with_tracer(seed):
    traced = Simulator()
    traced.tracer = DispatchProfile()
    traced_trace = _replay_script(traced, random.Random(seed), 120)
    plain_trace = _replay_script(Simulator(), random.Random(seed), 120)
    assert traced_trace == plain_trace
    # Every label is unique to one event: one timed sample per dispatch.
    assert sum(traced.tracer.counts.values()) == traced.events_dispatched
    assert set(traced.tracer.counts.values()) <= {1}


# ----------------------------------------------------------------------
# Machine runs: seeds x shapes x fault scenarios, pinned by goldens
# ----------------------------------------------------------------------

SHAPES, SEEDS, SCENARIOS = KERNEL_MATRIX


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_modes_bit_identical(shape, seed, scenario):
    cell = cell_id(shape, seed, scenario)
    assert kernel_record(shape, seed, scenario) == golden("kernel")[cell], (
        f"{cell}: run diverged from the record both kernel cores produced")
