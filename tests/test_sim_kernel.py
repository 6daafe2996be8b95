"""Unit tests for the discrete-event kernel."""

import heapq

import pytest

from repro.sim.kernel import SimulationError, Simulator, Ticker, quiesce
from repro.sim.profile import DispatchProfile


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(30, lambda: order.append("c"))
    sim.schedule(10, lambda: order.append("a"))
    sim.schedule(20, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 30


def test_same_cycle_ties_break_by_insertion_order():
    sim = Simulator()
    order = []
    for tag in "abcde":
        sim.schedule(5, lambda t=tag: order.append(t))
    sim.run()
    assert order == list("abcde")


def test_schedule_in_past_raises():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule(5, lambda: None)


def test_schedule_after_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_after(-1, lambda: None)


def test_run_with_limit_stops_at_limit():
    sim = Simulator()
    fired = []
    sim.schedule(100, lambda: fired.append(1))
    sim.run(limit=50)
    assert not fired
    assert sim.now == 50
    sim.run(limit=200)
    assert fired == [1]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    ev = sim.schedule(10, lambda: fired.append(1))
    sim.cancel(ev)
    sim.run()
    assert not fired


def test_stop_halts_mid_run():
    sim = Simulator()
    seen = []

    def first():
        seen.append("first")
        sim.stop("enough")

    sim.schedule(1, first)
    sim.schedule(2, lambda: seen.append("second"))
    sim.run()
    assert seen == ["first"]
    assert sim.stop_reason == "enough"
    sim.run()  # resumes
    assert seen == ["first", "second"]


def test_events_can_schedule_more_events():
    sim = Simulator()
    hits = []

    def chain(n):
        hits.append(n)
        if n < 5:
            sim.schedule_after(10, lambda: chain(n + 1))

    sim.schedule(0, lambda: chain(0))
    sim.run()
    assert hits == [0, 1, 2, 3, 4, 5]
    assert sim.now == 50


def test_drain_matching_cancels_by_label():
    sim = Simulator()
    fired = []
    sim.schedule(5, lambda: fired.append("keep"), label="keep")
    sim.schedule(6, lambda: fired.append("drop"), label="net.hop")
    cancelled = sim.drain_matching(lambda label: label.startswith("net."))
    assert cancelled == 1
    sim.run()
    assert fired == ["keep"]


def test_ticker_fires_periodically():
    sim = Simulator()
    ticks = []
    ticker = Ticker(sim, period=100, callback=ticks.append)
    ticker.start()
    sim.run(limit=550)
    assert ticks == [0, 1, 2, 3, 4]
    ticker.stop()
    sim.schedule(2000, lambda: None)
    sim.run()
    assert ticks == [0, 1, 2, 3, 4]


def test_ticker_phase_offsets_first_tick():
    sim = Simulator()
    times = []
    ticker = Ticker(sim, period=100, callback=lambda i: times.append(sim.now), phase=7)
    ticker.start()
    sim.run(limit=320)
    assert times == [7, 107, 207, 307]


def test_ticker_rejects_bad_period():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Ticker(sim, period=0, callback=lambda i: None)


def test_quiesce_polls_until_condition():
    sim = Simulator()
    state = {"done": False}

    def finish():
        state["done"] = True

    sim.schedule(5000, finish)
    assert quiesce(sim, limit=10_000, check=lambda: state["done"], step=100)
    assert not quiesce(Simulator(), limit=10, check=lambda: False)


def test_max_events_bound():
    sim = Simulator()
    for i in range(10):
        sim.schedule(i, lambda: None)
    sim.run(max_events=3)
    assert sim.events_dispatched == 3


# ----------------------------------------------------------------------
# step(), Ticker and quiesce edges, plain and traced dispatch loops
# ----------------------------------------------------------------------

def test_step_applies_backwards_time_guard(sim):
    sim.schedule(10, lambda: None)
    sim.run()
    assert sim.now == 10
    # White-box: smuggle an event past schedule()'s past-guard.
    heapq.heappush(sim._queue, (5, 10**9, lambda: None, ""))
    with pytest.raises(SimulationError, match="backwards"):
        sim.step()


def test_step_records_tracer_timing(sim):
    tracer = DispatchProfile()
    sim.tracer = tracer
    sim.schedule(1, lambda: None, label="alpha")
    sim.schedule(2, lambda: None, label="beta")
    assert sim.step() and sim.step() and not sim.step()
    assert tracer.counts == {"alpha": 1, "beta": 1}
    assert all(s >= 0.0 for s in tracer.seconds.values())


def test_step_run_interleaving_equivalent(sim):
    """Stepping partway then running must complete the same schedule a
    single run() would."""
    order = []
    for i in range(6):
        sim.schedule(i * 3 + 1, lambda i=i: order.append(i))
    for _ in range(3):
        assert sim.step()
    sim.run()
    assert order == list(range(6))


def test_ticker_zero_phase_first_fires_one_period_out(sim):
    """phase=0 means "aligned to the period", not "fire immediately":
    started at cycle 50, a period-100 ticker first fires at 150."""
    sim.schedule(50, lambda: None)
    sim.run()
    times = []
    ticker = Ticker(sim, period=100, callback=lambda i: times.append(sim.now))
    ticker.start()
    sim.run(limit=400)
    assert times == [150, 250, 350]
    assert ticker.ticks == 3


def test_ticker_phase_overrides_first_fire_only(sim):
    sim.schedule(50, lambda: None)
    sim.run()
    times = []
    ticker = Ticker(sim, period=100, phase=5,
                    callback=lambda i: times.append(sim.now))
    ticker.start()
    sim.run(limit=300)
    assert times == [55, 155, 255]  # now+phase, then strict periods


def test_ticker_stop_inside_callback(sim):
    ticks = []

    def on_tick(i):
        ticks.append(i)
        if i == 2:
            ticker.stop()

    ticker = Ticker(sim, period=10, callback=on_tick)
    ticker.start()
    sim.run(limit=1_000)
    assert ticks == [0, 1, 2]
    assert sim.pending() == 0


def test_quiesce_true_at_entry_dispatches_nothing(sim):
    sim.schedule(100, lambda: None)
    assert quiesce(sim, limit=10_000, check=lambda: True)
    assert sim.events_dispatched == 0
    assert sim.now == 0
    assert sim.pending() == 1


def test_quiesce_queue_drains_before_limit(sim):
    """Once the queue is empty nothing can flip the condition: quiesce
    must return its final answer without spinning to the limit."""
    state = {"done": False}
    sim.schedule(30, lambda: state.update(done=True))
    assert quiesce(sim, limit=10**9, check=lambda: state["done"], step=100)
    # And the failing flavour: drained, condition still false.
    sim2 = Simulator()
    sim2.schedule(30, lambda: None)
    assert not quiesce(sim2, limit=10**9, check=lambda: False, step=100)


def test_quiesce_condition_flips_exactly_at_limit(sim):
    state = {"done": False}
    sim.schedule(500, lambda: state.update(done=True))
    assert quiesce(sim, limit=500, check=lambda: state["done"], step=100)


# ----------------------------------------------------------------------
# run() bounds, integer cycles, and the cancel handle's contract
# ----------------------------------------------------------------------

def test_run_with_past_limit_dispatches_nothing_and_keeps_clock(sim):
    fired = []
    sim.schedule(100, lambda: fired.append(100))
    sim.schedule(150, lambda: fired.append(150))
    assert sim.run(limit=100) == 100
    assert sim.run(limit=50) == 100
    assert sim.now == 100
    assert fired == [100]
    assert sim.events_dispatched == 1
    # The clock did not rewind, so the past guard still holds.
    with pytest.raises(SimulationError):
        sim.schedule(60, lambda: None)
    sim.run()
    assert fired == [100, 150]


def test_run_with_zero_max_events_dispatches_nothing(sim):
    fired = []
    sim.schedule(5, lambda: fired.append(5))
    assert sim.run(max_events=0) == 0
    assert sim.run(limit=1_000, max_events=0) == 0
    assert fired == []
    assert sim.events_dispatched == 0
    assert sim.pending() == 1


def test_run_with_negative_max_events_raises(sim):
    sim.schedule(5, lambda: None)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=-1)
    assert sim.events_dispatched == 0
    assert sim.now == 0


def test_schedule_rejects_non_integer_cycles(sim):
    sim.schedule(5, lambda: None)
    sim.run()
    for when in (5.7, 6.0):
        with pytest.raises(SimulationError, match="non-integer"):
            sim.schedule(when, lambda: None)
    with pytest.raises(SimulationError, match="non-integer"):
        sim.schedule_after(0.5, lambda: None)
    assert sim.pending() == 0
    assert sim.now == 5


def test_cancel_twice_is_a_noop(sim):
    fired = []
    handle = sim.schedule(5, lambda: fired.append(5))
    sim.schedule(6, lambda: fired.append(6))
    sim.cancel(handle)
    sim.cancel(handle)
    assert sim.pending() == 2
    sim.run()
    assert fired == [6]
    sim.cancel(handle)  # popped and skipped already
    assert sim.pending() == 0
    assert not sim._cancelled


def test_cancel_after_fire_is_a_noop(sim):
    fired = []
    done = sim.schedule(5, lambda: fired.append(5))
    sim.run()
    sim.cancel(done)
    # Same cycle: a later event cancels one that already fired this cycle.
    first = sim.schedule(10, lambda: fired.append(10))
    sim.schedule(10, lambda: sim.cancel(first))
    sim.schedule(10, lambda: sim.cancel(done))
    sim.schedule(11, lambda: fired.append(11))
    sim.run()
    assert fired == [5, 10, 11]
    assert sim.events_dispatched == 5
    assert not sim._cancelled


def test_event_cancelling_itself_is_a_noop(sim):
    handles = []
    handles.append(sim.schedule(3, lambda: sim.cancel(handles[0])))
    sim.run()
    assert sim.events_dispatched == 1
    assert sim.pending() == 0
    assert not sim._cancelled


def test_ticker_stop_inside_callback_leaves_nothing_behind(sim):
    ticker = Ticker(sim, period=10, callback=lambda i: ticker.stop())
    ticker.start()
    sim.run()
    assert ticker.ticks == 1
    ticker.stop()  # stopping a stopped ticker is a no-op too
    assert sim.pending() == 0
    assert not sim._cancelled


def test_cancelled_entries_count_until_popped(sim):
    handles = [sim.schedule(i + 1, lambda: None) for i in range(5)]
    for handle in handles[:3]:
        sim.cancel(handle)
    assert sim.pending() == 5
    assert sim.peak_pending == 5
    assert sim.step()  # pops the three cancelled entries, fires the fourth
    assert sim.now == 4
    assert sim.pending() == 1
    assert sim.peak_pending == 5
    sim.run()
    assert sim.events_dispatched == 2
    assert sim.pending() == 0
    assert not sim._cancelled


def test_compacted_handle_cancel_is_a_noop(sim):
    handles = [sim.schedule(i + 1, lambda: None, label="bulk")
               for i in range(4)]
    sim.schedule(100, lambda: None, label="keep")
    assert sim.drain_matching(lambda label: label == "bulk") == 4
    assert sim.pending() == 1  # compacted
    sim.cancel(handles[0])
    assert not sim._cancelled
    sim.run()
    assert sim.now == 100
    assert sim.events_dispatched == 1
