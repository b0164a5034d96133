"""Simulator observability: clock binding, dispatch events."""

import pytest

from repro.obs import Observability
from repro.sim import SimNode, Simulator


def _two_step_process(sim):
    yield sim.timeout(10.0)
    yield sim.timeout(5.0)


def test_sim_clock_binds_to_tracer():
    obs = Observability()
    sim = Simulator(obs=obs)
    span = obs.tracer.start_span("window")
    sim.process(_two_step_process(sim))
    sim.run()
    span.finish()
    rec = obs.recorder.spans("window")[0]
    assert rec["sim_start_ms"] == 0.0
    assert rec["sim_ms"] == 15.0


def test_events_dispatched_counter():
    obs = Observability()
    sim = Simulator(obs=obs)
    sim.process(_two_step_process(sim))
    sim.run()
    count = obs.metrics.counter("sim.events_dispatched").value
    assert count > 0


def _dispatches_seen_by_capture(build, drive):
    """Reference count: capture records one sim.dispatch per event."""
    obs = Observability(capture_sim_events=True)
    sim = Simulator(obs=obs)
    outcome = _drive(sim, build(sim), drive)
    seen = len(obs.recorder.events("sim.dispatch"))
    assert obs.metrics.counter("sim.events_dispatched").value == seen
    return outcome, seen


def _drive(sim, target, drive):
    try:
        drive(sim, target)
    except ZeroDivisionError:
        return "raised"
    return "returned"


def _boom():
    1 / 0


def _build_two_steps(sim):
    return sim.process(_two_step_process(sim))


def _build_holding_a_cpu(sim):
    """A process holds a node's CPU twice: with capture off, its grants
    and service timeouts are dispatched in place, never built
    (``Simulator.take_now``, ``Simulator.take_after``)."""
    node = SimNode(sim, "n", cpu_capacity=1000)

    def body():
        yield from node.execute(5)
        yield sim.timeout(0.0)
        yield from node.execute(10)

    return sim.process(body())


def _build_with_raising_callback(sim):
    proc = sim.process(_two_step_process(sim))
    sim.call_at(12.0, _boom)  # raises out of the dispatch loop mid-run
    return proc


def _build_holding_a_cpu_with_raising_callback(sim):
    proc = _build_holding_a_cpu(sim)
    sim.call_at(12.0, _boom)  # raises while the second job holds the CPU
    return proc


@pytest.mark.parametrize(
    "drive",
    [
        lambda sim, proc: sim.run(),
        lambda sim, proc: sim.run(until=12.0),
        lambda sim, proc: (sim.run(until=4.0), sim.run()),
        lambda sim, proc: sim.run_until_complete(proc),
    ],
    ids=["run", "run-until", "two-runs", "run_until_complete"],
)
@pytest.mark.parametrize(
    "build",
    [
        _build_two_steps,
        _build_holding_a_cpu,
        _build_with_raising_callback,
        _build_holding_a_cpu_with_raising_callback,
    ],
    ids=["clean", "in-place", "raising", "in-place-raising"],
)
def test_events_dispatched_counter_equals_events_dispatched(build, drive):
    """The loop counts in a local and settles the counter on the way
    out — also when a callback raises, which still counts the event
    whose callback raised — with capture on and with it off, and counts
    the events dispatched in place with capture off."""
    outcome, expected = _dispatches_seen_by_capture(build, drive)
    obs = Observability(tracing=False, metrics=True)
    sim = Simulator(obs=obs)
    assert _drive(sim, build(sim), drive) == outcome
    assert expected > 0
    assert obs.metrics.counter("sim.events_dispatched").value == expected


def test_capture_sim_events_off_by_default():
    obs = Observability()
    sim = Simulator(obs=obs)
    sim.process(_two_step_process(sim))
    sim.run()
    assert obs.recorder.events("sim.dispatch") == []


def test_capture_sim_events_emits_dispatch_events():
    obs = Observability(capture_sim_events=True)
    sim = Simulator(obs=obs)
    sim.process(_two_step_process(sim))
    sim.run()
    events = obs.recorder.events("sim.dispatch")
    assert events, "expected one event per dispatched simulator event"
    assert len(events) >= 3  # process start + two timeouts
    assert all(isinstance(e["attrs"]["event"], str) for e in events)
    times = [e["sim_ms"] for e in events]
    assert times == sorted(times)
    assert times[0] == 0.0  # process start dispatches at t=0
    assert times[-1] == 15.0


def test_default_simulator_has_no_observability_overhead_paths():
    sim = Simulator()
    assert sim._evt_counter is None
    assert not sim.obs.tracer.enabled and not sim.obs.metrics.enabled
