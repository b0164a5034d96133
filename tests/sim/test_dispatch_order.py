"""The two-queue kernel dispatches in the heap-only kernel's order.

Events due at the current instant skip the heap and wait in a FIFO, and
``Simulator._drain`` merges the two queues.  A process holding a node's
CPU may also have its grant and service timeout dispatched in place
(``Simulator.take``).  The reference below is the kernel without the
FIFO and without in-place dispatch: every event goes onto the heap under
its ``(when, origin, seq)`` key, and the loop pops the heap alone.
Generated programs must dispatch the same labels at the same times, and
schedule and dispatch the same number of events, on both.
"""

import math
from heapq import heappop, heappush

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
    st.tuples(st.just("external"), st.sampled_from([-1, 1])),
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
                sim.schedule_external(sim.now, origin + step[1], external_seq[0], ev)
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
# Each of these dispatches out of order if take() ignores one of its
# conditions, in turn: a heap event due now from a lower origin, a second
# waiter on the popped event, the drain's bound (the stop at 0.5 ms).
@example(
    origin=1,
    program=[[("external", -1), ("hold", 0, 0)]],
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
def test_two_queues_dispatch_in_heap_order(origin, program, stops, limit, shared_delays):
    got = execute(Simulator, origin, program, stops, limit, shared_delays)
    want = execute(HeapOnlySimulator, origin, program, stops, limit, shared_delays)
    assert got == want
