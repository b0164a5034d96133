"""The two-queue kernel dispatches in the heap-only kernel's order.

Events due at the current instant skip the heap and wait in a FIFO, and
``Simulator._drain`` merges the two queues.  A process holding a node's
CPU may also have its grant and service timeout dispatched in place,
without either event being built (``Simulator.take_now``,
``Simulator.take_after``).  The reference below is the kernel without
the FIFO and without in-place dispatch: every event is built and goes
onto the heap under its ``(when, origin, seq)`` key, and the loop pops
the heap alone.  Generated programs must dispatch the same labels at the
same times, and schedule and dispatch the same number of events, on both.
"""

import math
from heapq import heappop, heappush

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.obs import Observability
from repro.sim import Injected, SimNode, SimulationError, Simulator

# -- the reference kernel -------------------------------------------------------


class _OntoTheHeap:
    """Stands in for the FIFO: an event due now goes onto the heap under
    its full key.  Every caller bumps ``_seq`` before appending."""

    def __init__(self, sim):
        self.sim = sim

    def append(self, event):
        sim = self.sim
        heappush(sim._heap, (sim._now, sim._origin, sim._seq, event))

    def __len__(self):
        return 0


class HeapOnlySimulator(Simulator):
    """Every event on the heap, one pop site: the reference order.  Its
    loop counts its own dispatches and never dispatches in place."""

    def __init__(self, obs=None, origin=0):
        super().__init__(obs=obs, origin=origin)
        self._fifo = _OntoTheHeap(self)

    def _drain(self, until, proc):
        heap = self._heap
        dispatched = 0
        try:
            while heap and heap[0][0] < until and not (proc and proc._triggered):
                when, _origin, _seq, event = heappop(heap)
                if when < self._now:
                    raise SimulationError("event list corrupted: time went backwards")
                self._now = when
                dispatched += 1
                callbacks, event.callbacks = event.callbacks, None
                for fn in callbacks or ():
                    fn(event)
        finally:
            self._evt_counter.inc(dispatched)


# -- generated programs -----------------------------------------------------------

#: "tiny" is a positive delay that rounds away: ``now + d == now``.
DELAYS = st.sampled_from(["zero", "tiny", 0.5, 1.0, 2.0])

LEAF = st.one_of(
    st.tuples(st.just("timeout"), DELAYS),
    st.tuples(st.sampled_from(["succeed", "fail", "call_at"])),
    # an event merged from the origin below or above, due now or later
    st.tuples(st.just("external"), st.sampled_from([-1, 1]), st.sampled_from([0.0, 0.5, 500.0])),
    st.tuples(st.sampled_from(["any_of", "all_of"]), DELAYS, DELAYS),
    # hold one of two shared CPUs for 0, 500 or 1000 ms
    st.tuples(st.just("hold"), st.integers(0, 1), st.sampled_from([0, 500, 1000])),
    # wait on one of two timeouts that several processes may share
    st.tuples(st.just("shared"), st.integers(0, 1)),
)
STEP = st.one_of(
    LEAF,
    st.tuples(st.just("spawn"), st.lists(LEAF, max_size=4)),
    # an RPC-shaped race: a child process against a timeout
    st.tuples(st.just("race"), st.lists(LEAF, max_size=3), DELAYS),
)
PROGRAMS = st.lists(st.lists(STEP, max_size=6), min_size=1, max_size=4)
STOPS = st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5]), max_size=3).map(sorted)


def _delay(sim, d):
    if d == "zero":
        return 0.0
    if d == "tiny":
        return math.ulp(sim.now) / 4
    return d


def execute(sim_cls, origin, program, stops, limit, shared_delays):
    """Run ``program`` on a fresh ``sim_cls``; return what was observed."""
    obs = Observability(tracing=False, metrics=True)
    sim = sim_cls(obs=obs, origin=origin)
    nodes = [SimNode(sim, f"n{i}", cpu_capacity=1000) for i in range(2)]
    shared = [sim.timeout(_delay(sim, d)) for d in shared_delays]
    trace = []
    external_seq = [0]

    def log(label):
        trace.append((sim.now, label))

    def body(name, steps):
        for i, step in enumerate(steps):
            label = f"{name}.{i}"
            kind = step[0]
            if kind == "timeout":
                yield sim.timeout(_delay(sim, step[1]))
            elif kind == "succeed":
                ev = sim.event()
                ev.add_callback(lambda _e, label=label: log(label + "!"))
                ev.succeed()
            elif kind == "fail":
                ev = sim.event().fail(KeyError(label))
                try:
                    yield ev
                except KeyError:
                    pass
            elif kind == "call_at":
                sim.call_at(sim.now, lambda label=label: log(label + "!"))
            elif kind == "external" and origin + step[1] >= 0:
                external_seq[0] += 1
                ev = Injected(sim, label + "!")
                ev.add_callback(lambda e: log(e.payload))
                sim.schedule_external(
                    sim.now + step[2], origin + step[1], external_seq[0], ev
                )
            elif kind == "hold":
                yield from nodes[step[1]].execute(step[2])
            elif kind == "shared":
                yield shared[step[1]]
            elif kind in ("any_of", "all_of"):
                children = [sim.timeout(_delay(sim, d)) for d in step[1:]]
                yield getattr(sim, kind)(children)
            elif kind == "spawn":
                sim.process(body(label, step[1]))
            elif kind == "race":
                child = sim.process(body(label, step[1]))
                yield sim.any_of([child, sim.timeout(_delay(sim, step[2]))])
            log(label)
        return name

    procs = [sim.process(body(f"p{n}", steps)) for n, steps in enumerate(program)]
    for until in stops:
        log(("run", until, sim.run(until=until)))
    if limit is not None:
        try:
            sim.run_until_complete(procs[0], limit=limit)
        except SimulationError as exc:
            log(("limit", str(exc).split(" waiting")[0]))
    sim.run()
    dispatched = obs.metrics.counter("sim.events_dispatched").value
    return trace, sim.events_scheduled, dispatched, sim.now


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    origin=st.integers(0, 3),
    program=PROGRAMS,
    stops=STOPS,
    limit=st.one_of(st.none(), st.sampled_from([0.0, 1.0, 2.5])),
    shared_delays=st.tuples(DELAYS, DELAYS),
)
# Each of these dispatches out of order if the in-place path ignores one
# of its conditions, in turn: a heap event due now from a lower origin, a
# second waiter on the popped event, the drain's bound (the stop at
# 0.5 ms), a heap event at the service timeout's instant from a lower
# origin, an event in the FIFO at the service timeout (the second
# process's zero-length timeout), an event in the FIFO at the grant and
# at a zero-length service timeout, a heap event due now from the same
# origin at the grant.  The last two are taken in place: a heap event at
# the timeout's instant from a higher origin, and a zero-length service
# time behind a heap event due now from a higher origin.
@example(
    origin=1,
    program=[[("external", -1, 0.0), ("hold", 0, 0)]],
    stops=[],
    limit=None,
    shared_delays=(1.0, 2.0),
)
@example(
    origin=0,
    program=[[("shared", 0), ("hold", 0, 0)], [("shared", 0)]],
    stops=[],
    limit=None,
    shared_delays=(0.5, 2.0),
)
@example(
    origin=0,
    program=[[("hold", 0, 500)]],
    stops=[0.5],
    limit=None,
    shared_delays=("zero", "zero"),
)
@example(
    origin=1,
    program=[[("external", -1, 500.0), ("hold", 0, 500)]],
    stops=[],
    limit=None,
    shared_delays=("zero", "zero"),
)
@example(
    origin=0,
    program=[[("hold", 0, 500)], [("timeout", "zero")]],
    stops=[],
    limit=None,
    shared_delays=("zero", "zero"),
)
@example(
    origin=0,
    program=[[("hold", 0, 0)], [("timeout", "zero")]],
    stops=[],
    limit=None,
    shared_delays=("zero", "zero"),
)
@example(
    origin=0,
    program=[[("timeout", 0.5), ("hold", 0, 0)], [("timeout", 0.5), ("timeout", "zero")]],
    stops=[],
    limit=None,
    shared_delays=("zero", "zero"),
)
@example(
    origin=0,
    program=[[("external", 1, 500.0), ("hold", 0, 500)]],
    stops=[],
    limit=None,
    shared_delays=("zero", "zero"),
)
@example(
    origin=0,
    program=[[("external", 1, 0.0), ("hold", 0, 0), ("hold", 1, 0)]],
    stops=[],
    limit=None,
    shared_delays=("zero", "zero"),
)
def test_two_queues_dispatch_in_heap_order(origin, program, stops, limit, shared_delays):
    got = execute(Simulator, origin, program, stops, limit, shared_delays)
    want = execute(HeapOnlySimulator, origin, program, stops, limit, shared_delays)
    assert got == want


@pytest.mark.parametrize("delay", [math.nan, -1.0, math.inf], ids=["nan", "negative", "inf"])
def test_take_after_refuses_the_delays_timeout_refuses(delay):
    sim = Simulator()
    with pytest.raises(ValueError, match="timeout delay not finite and >= 0"):
        sim.take_after(delay)
    with pytest.raises(ValueError, match="timeout delay not finite and >= 0"):
        sim.timeout(delay)
    assert sim.events_scheduled == 0 and sim.now == 0.0


def test_a_zero_delay_waits_behind_a_heap_entry_due_now():
    """Right after a heap pop, another local timeout at the same instant
    (scheduled later) is still due now: it runs first."""
    sim = Simulator()
    order = []

    def first():
        yield sim.timeout(1.0)
        taken = sim.take_after(0.0)
        if not taken:
            yield sim.timeout(0.0)
        order.append(("first", taken))

    def second():
        yield sim.timeout(1.0)
        order.append(("second", None))

    sim.process(first())
    sim.process(second())
    sim.run()
    assert order == [("second", None), ("first", False)]


def _hold_a_cpu_three_times(sim):
    """A process holds one CPU for 2, 0 and 5 ms, 1 ms apart; returns
    its busy integral settled at 20 ms."""
    node = SimNode(sim, "n", cpu_capacity=1000)

    def body():
        for work in (2, 0, 5):
            yield sim.timeout(1.0)
            yield from node.execute(work)

    sim.process(body())
    sim.run(until=20.0)
    return node.cpu.busy_area()


def test_a_grant_taken_in_place_keeps_the_busy_integral():
    obs = Observability(tracing=False, metrics=True)
    sim = Simulator(obs=obs)
    granted_in_place = []
    take_now = sim.take_now

    def spy():
        granted_in_place.append(take_now())
        return granted_in_place[-1]

    sim.take_now = spy
    got = _hold_a_cpu_three_times(sim)
    want = _hold_a_cpu_three_times(HeapOnlySimulator(obs=obs))
    assert granted_in_place == [True, True, True]
    assert got == want == 7.0
