"""Remaining kernel edge cases."""

import pytest

from repro.sim import AnyOf, Event, SimulationError, Simulator


def test_run_is_not_reentrant():
    sim = Simulator()
    failure = []

    def proc():
        try:
            sim.run()
        except SimulationError as exc:
            failure.append(str(exc))
        yield sim.timeout(1)

    sim.process(proc())
    sim.run()
    assert failure and "reentrant" in failure[0]


def test_run_until_complete_is_not_reentrant():
    """Entered from a callback, it would be a second dispatch loop
    running inside the first; the guard covers both entry points."""
    sim = Simulator()

    def inner():
        yield sim.timeout(5)

    def outer():
        yield sim.timeout(1)
        sim.run_until_complete(sim.process(inner()))

    proc = sim.process(outer())
    with pytest.raises(SimulationError, match="not reentrant"):
        sim.run_until_complete(proc)
    assert sim.now == 1.0  # the inner loop never ran


def test_any_of_failure_propagates():
    sim = Simulator()

    def failing_child():
        yield sim.timeout(1)
        raise ValueError("child died")

    def parent():
        yield sim.any_of([sim.process(failing_child()), sim.timeout(100)])

    p = sim.process(parent())
    sim.run()
    assert p.failed
    assert isinstance(p.value, ValueError)


def test_all_of_empty_completes_immediately():
    sim = Simulator()
    done = []

    def proc():
        result = yield sim.all_of([])
        done.append((sim.now, result))

    sim.process(proc())
    sim.run()
    assert done == [(0.0, [])]


def test_callback_on_already_dispatched_event_still_fires():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("v")
    sim.run()  # dispatches the event; callbacks list is now closed
    fired = []
    ev.add_callback(lambda e: fired.append(e.value))
    sim.run()
    assert fired == ["v"]


def test_event_fail_raises_at_the_yield():
    """A failed event throws its exception into the waiting process at
    the yield point, so processes can handle remote failures inline."""
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter():
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    p = sim.process(waiter())
    ev.fail(RuntimeError("boom"))
    sim.run()
    assert caught == ["boom"]
    assert p.triggered and not p.failed  # the handler recovered


def test_unhandled_event_failure_fails_the_process():
    sim = Simulator()
    ev = sim.event()

    def waiter():
        yield ev

    p = sim.process(waiter())
    ev.fail(RuntimeError("boom"))
    sim.run()
    assert p.failed and isinstance(p.value, RuntimeError)


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_process_name_defaults():
    sim = Simulator()

    def myproc():
        yield sim.timeout(1)

    p = sim.process(myproc())
    assert "process" in repr(p) or "myproc" in repr(p)
    sim.run()
