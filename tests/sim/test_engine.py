"""Tests for the discrete-event simulation kernel."""

import math
import sys

import pytest

from repro.obs import Observability
from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    SimulationError,
    Simulator,
    Timeout,
)


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    fired = []
    sim.process(iter_timeout(sim, 5.0, fired))
    sim.run()
    assert fired == [5.0]
    assert sim.now == 5.0


def test_events_scheduled_counts_every_scheduled_event():
    sim = Simulator()
    assert sim.events_scheduled == 0
    sim.call_after(1.0, lambda: None)
    sim.call_after(2.0, lambda: None)
    assert sim.events_scheduled == 2  # counted when scheduled, not when run
    sim.run()
    assert sim.events_scheduled == 2
    with pytest.raises(AttributeError):
        sim.events_scheduled = 0


def iter_timeout(sim, delay, log):
    yield sim.timeout(delay)
    log.append(sim.now)


def test_equal_time_events_run_in_schedule_order():
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in "abc":
        sim.process(proc(tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_process_return_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(1)
        return 42

    p = sim.process(proc())
    sim.run()
    assert p.triggered and p.value == 42


def test_process_waits_on_process():
    sim = Simulator()
    log = []

    def child():
        yield sim.timeout(3)
        return "done"

    def parent():
        result = yield sim.process(child())
        log.append((sim.now, result))

    sim.process(parent())
    sim.run()
    assert log == [(3.0, "done")]


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def child():
        yield sim.timeout(1)
        raise ValueError("boom")

    def parent():
        yield sim.process(child())

    p = sim.process(parent())
    sim.run()
    assert p.failed
    assert isinstance(p.value, ValueError)


def test_run_until_complete_raises_process_failure():
    sim = Simulator()

    def bad():
        yield sim.timeout(1)
        raise RuntimeError("nope")

    p = sim.process(bad(), name="bad-proc")
    with pytest.raises(RuntimeError, match="nope") as excinfo:
        sim.run_until_complete(p)
    assert excinfo.value.sim_context == "in process 'bad-proc' at t=1.0ms"


def test_run_until_complete_limit_is_inclusive():
    sim = Simulator()

    def proc():
        yield sim.timeout(10)
        return "on time"

    assert sim.run_until_complete(sim.process(proc()), limit=10) == "on time"
    assert sim.now == 10.0


def test_run_until_complete_limit_exceeded():
    sim = Simulator()

    def proc():
        yield sim.timeout(10)
        yield sim.timeout(10)

    p = sim.process(proc())
    with pytest.raises(SimulationError, match="time limit 15 exceeded"):
        sim.run_until_complete(p, limit=15)
    assert sim.now == 10.0  # the event past the limit did not run
    assert sim.peek() == 20.0
    sim.run_until_complete(p)  # and is still there to run
    assert sim.now == 20.0


def test_run_until_limit():
    sim = Simulator()
    log = []

    def proc():
        for _ in range(10):
            yield sim.timeout(10)
            log.append(sim.now)

    sim.process(proc())
    sim.run(until=35)
    assert log == [10.0, 20.0, 30.0]
    assert sim.now == 35.0


def test_run_until_is_exclusive():
    sim = Simulator()
    log = []

    def proc():
        yield sim.timeout(10)
        log.append(sim.now)

    sim.process(proc())
    sim.run(until=10)
    assert log == []  # the event stamped exactly at `until` does not run
    sim.run()
    assert log == [10.0]


@pytest.mark.parametrize("metrics", [False, True], ids=["plain", "metrics"])
def test_run_until_in_the_past_leaves_the_clock(metrics):
    """With and without the event counter."""
    obs = Observability(tracing=False, metrics=True) if metrics else None
    sim = Simulator(obs=obs)
    sim.timeout(200)  # still pending throughout
    sim.run(until=150)
    assert sim.run(until=50) == 150.0
    assert sim.now == 150.0
    assert sim.peek() == 200.0  # nothing ran


def test_run_rejects_a_nan_horizon():
    """``heap[0][0] < nan`` is never true, so a NaN ``until`` used to
    run nothing and return the clock as if it had succeeded."""
    sim = Simulator()
    sim.timeout(5)
    with pytest.raises(SimulationError, match="until"):
        sim.run(until=math.nan)
    assert sim.now == 0.0
    assert sim.peek() == 5.0


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1)


#: every entry point that puts an event on the event list at a given
#: delay or time
SCHEDULERS = pytest.mark.parametrize(
    "schedule",
    [
        lambda sim, t: sim.timeout(t),
        lambda sim, t: Timeout(sim, t),
        lambda sim, t: sim.call_at(t, lambda: None),
        lambda sim, t: sim.call_after(t, lambda: None),
        lambda sim, t: sim.schedule_external(t, 1, 1, sim.event()),
    ],
    ids=["timeout", "Timeout", "call_at", "call_after", "schedule_external"],
)


@SCHEDULERS
def test_nan_time_rejected(schedule):
    """NaN fails every ``<`` test, so a ``delay < 0`` check lets it
    through — and one NaN heap key makes ``sim.now`` NaN for good."""
    sim = Simulator()
    with pytest.raises((ValueError, SimulationError)):
        schedule(sim, math.nan)
    assert sim.events_scheduled == 0
    assert sim.peek() == float("inf")  # nothing reached the event list


@SCHEDULERS
def test_infinite_time_rejected(schedule):
    """An event at +inf is accepted by ``>= now`` checks, and once it
    runs the clock reads inf: every later timeout lands there too."""
    sim = Simulator()
    with pytest.raises((ValueError, SimulationError)):
        schedule(sim, math.inf)
    assert sim.events_scheduled == 0
    assert sim.run() == 0.0


def test_run_until_complete_rejects_a_nan_limit():
    """``limit`` is inclusive through ``nextafter(limit, inf)``, which
    keeps a NaN: nothing runs, and the failure used to read as a
    timeout ("time limit nan exceeded") instead of a bad argument."""
    sim = Simulator()

    def proc():
        yield sim.timeout(5)

    p = sim.process(proc())
    with pytest.raises(SimulationError, match="comparable limit"):
        sim.run_until_complete(p, limit=math.nan)
    assert sim.now == 0.0
    assert sim.run_until_complete(p) is None
    assert sim.now == 5.0


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_manual_event_delivers_value():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter():
        value = yield ev
        got.append((sim.now, value))

    def trigger():
        yield sim.timeout(7)
        ev.succeed("hello")

    sim.process(waiter())
    sim.process(trigger())
    sim.run()
    assert got == [(7.0, "hello")]


def test_any_of_triggers_on_first():
    sim = Simulator()
    got = []

    def waiter():
        result = yield sim.any_of([sim.timeout(5, "fast"), sim.timeout(9, "slow")])
        got.append((sim.now, result))

    sim.process(waiter())
    sim.run()
    assert got[0][0] == 5.0
    assert "fast" in got[0][1]


def test_all_of_waits_for_every_event():
    sim = Simulator()
    got = []

    def waiter():
        result = yield sim.all_of([sim.timeout(5, "a"), sim.timeout(9, "b")])
        got.append((sim.now, sorted(result)))

    sim.process(waiter())
    sim.run()
    assert got == [(9.0, ["a", "b"])]


def test_call_at_and_after():
    sim = Simulator()
    log = []
    sim.call_at(5.0, lambda: log.append(("at", sim.now)))
    sim.call_after(2.0, lambda: log.append(("after", sim.now)))
    sim.run()
    assert log == [("after", 2.0), ("at", 5.0)]


def test_call_at_past_rejected():
    sim = Simulator()
    sim.call_at(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(1.0, lambda: None)


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(4.0)
    assert sim.peek() == 4.0


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def bad():
        yield 42

    p = sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_deadlock_detection_in_run_until_complete():
    sim = Simulator()

    def stuck():
        yield sim.event()  # never triggered

    p = sim.process(stuck())
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_complete(p)


# -- checks the inlined hot paths must still make -----------------------------


def test_timeout_constructed_directly_rejects_negative_delay():
    """SimNode.execute and SimLink.transfer build Timeout(sim, ...)
    without going through sim.timeout()."""
    sim = Simulator()
    with pytest.raises(ValueError, match="timeout delay not finite and >= 0"):
        Timeout(sim, -0.5)
    assert sim.events_scheduled == 0  # rejected before it was scheduled


@pytest.mark.parametrize("first", ["succeed", "fail"])
@pytest.mark.parametrize("second", ["succeed", "fail"])
def test_every_double_trigger_combination_rejected(first, second):
    sim = Simulator()
    ev = sim.event()
    arg = {"succeed": 1, "fail": RuntimeError("x")}
    getattr(ev, first)(arg[first])
    with pytest.raises(SimulationError, match="already triggered"):
        getattr(ev, second)(arg[second])
    assert sim.events_scheduled == 1


def test_timeout_and_succeed_push_the_kernel_heap_key():
    """A future event is pushed as (when, origin, seq, event), seq
    counting every scheduled event — the key the parallel kernel's merge
    order is built on.  An event due now (by the sum ``now + delay``,
    not by ``delay == 0``) joins the same-instant FIFO in seq order."""
    sim = Simulator(origin=3)
    sim.run(until=5.0)
    timeout = sim.timeout(2.5, value="v")
    manual = sim.event().succeed("w")
    direct = Timeout(sim, 0.0)
    tiny = Timeout(sim, 1e-300)  # 5.0 + 1e-300 == 5.0
    assert sim._heap == [(7.5, 3, 1, timeout)]
    assert list(sim._fifo) == [manual, direct, tiny]
    assert sim.events_scheduled == sim.events_pending == 4
    assert sim.peek() == 5.0
    assert timeout.delay == 2.5 and timeout.triggered and not timeout.failed
    assert timeout.value == "v" and manual.value == "w"


@pytest.mark.parametrize("metrics", [False, True], ids=["plain", "metrics"])
@pytest.mark.parametrize("entry", ["run", "run_until_complete"])
def test_time_going_backwards_is_detected(entry, metrics):
    obs = Observability(tracing=False, metrics=True) if metrics else None
    sim = Simulator(obs=obs)

    def sleeper():
        yield sim.timeout(10.0)
        yield sim.timeout(10.0)

    proc = sim.process(sleeper())
    sim.run(until=15.0)
    sim._heap.insert(0, (1.0, 0, 99, sim.event()))  # corrupt the event list
    with pytest.raises(SimulationError, match="time went backwards"):
        if entry == "run":
            sim.run()
        else:
            sim.run_until_complete(proc)
    assert sim.now == 15.0


def test_yielding_an_already_dispatched_event_resumes_on_the_next_step():
    """The callbacks list of a dispatched event is None; the process
    must be woken by a fresh kernel event, not dropped."""
    sim = Simulator()
    done = sim.timeout(1.0, value="late")
    log = []

    def latecomer():
        yield sim.timeout(5.0)
        assert done.callbacks is None  # dispatched long ago
        before = sim.events_scheduled
        value = yield done
        log.append((sim.now, value, sim.events_scheduled - before))

    sim.process(latecomer())
    sim.run()
    assert log == [(5.0, "late", 1)]  # same instant, one wake-up event


def test_failed_event_is_thrown_into_the_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter():
        try:
            yield ev
        except KeyError as exc:
            caught.append(exc.args)

    sim.process(waiter())
    sim.call_at(3.0, lambda: ev.fail(KeyError("gone")))
    sim.run()
    assert caught == [("gone",)]


# -- the same cases with sim.dispatch capture on --------------------------------

#: every case above that drives run() or run_until_complete() through a
#: stopping rule, an error exit or a thrown exception
CAPTURE_CASES = [
    test_run_until_limit,
    test_run_until_is_exclusive,
    test_run_until_complete_raises_process_failure,
    test_run_until_complete_limit_is_inclusive,
    test_run_until_complete_limit_exceeded,
    test_deadlock_detection_in_run_until_complete,
    test_process_exception_propagates_to_waiter,
    test_failed_event_is_thrown_into_the_waiter,
    test_yielding_an_already_dispatched_event_resumes_on_the_next_step,
]


@pytest.mark.parametrize("case", CAPTURE_CASES, ids=lambda case: case.__name__[5:])
def test_case_with_dispatch_capture(case, monkeypatch):
    """One loop and one ``Process._resume`` serve both modes: each case
    passes unchanged on a capturing simulator, which records exactly one
    ``sim.dispatch`` per event the counter counts — whichever of
    ``run`` / ``run_until_complete`` dispatched it and however it exited."""
    observed = []
    real_simulator = Simulator

    def capturing_simulator():
        obs = Observability(capture_sim_events=True)
        observed.append(obs)
        return real_simulator(obs=obs)

    monkeypatch.setattr(sys.modules[__name__], "Simulator", capturing_simulator)
    case()
    (obs,) = observed
    dispatched = obs.metrics.counter("sim.events_dispatched").value
    assert dispatched > 0
    assert len(obs.recorder.events("sim.dispatch")) == dispatched
