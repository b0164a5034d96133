"""Tests for the fault injector: ground-truth mutation semantics."""

import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.network import NetworkError
from repro.sim import LinkDownError, NodeDownError


class FakeInstance:
    def __init__(self):
        self.failed = False
        self.daemon_stopped = False

    def stop(self):
        self.daemon_stopped = True


def test_crash_marks_instances_failed_and_clears_node(world):
    node = world.transport.node("b")
    instance = FakeInstance()
    node.installed["Comp"] = instance
    injector = FaultInjector(world)

    injector.crash_node("b")
    assert not node.up
    assert node.installed == {}  # volatile state gone
    assert instance.failed  # flagged before the table was cleared
    assert instance.daemon_stopped
    assert injector.crash_times["b"] == world.sim.now
    # Belief is untouched: the planner still thinks b is alive.
    assert world.network.node("b").up


def test_execute_on_crashed_node_raises(world):
    world.transport.node("b").crash()

    def work():
        yield from world.transport.node("b").execute(100.0)

    proc = world.sim.process(work())
    world.sim.run()
    assert proc.failed
    assert isinstance(proc.value, NodeDownError)


def test_restart_brings_node_back_empty(world):
    node = world.transport.node("b")
    node.installed["Comp"] = FakeInstance()
    node.crash()
    FaultInjector(world).restart_node("b")
    assert node.up
    assert node.installed == {}
    assert node.crashed_at_ms is None
    assert node.crashes == 1


def test_message_through_crashed_node_fails(world):
    world.sim.call_at(0.0, lambda: FaultInjector(world).crash_node("b"))

    def send():
        yield from world.transport.deliver("a", "c", 1000)

    proc = world.sim.process(send())
    world.sim.run()
    assert proc.failed
    assert isinstance(proc.value, NodeDownError)


def test_partition_fails_live_link_and_belief(world):
    injector = FaultInjector(world)
    injector.partition_link("a", "b")
    # Both layers agree (IP-style rerouting is instant in the model).
    assert not world.network.link("a", "b").up
    assert not world.transport.link("a", "b").up

    def send():
        yield from world.transport.deliver("a", "c", 1000)

    proc = world.sim.process(send())
    world.sim.run()
    # No alternate route in a line network: analytically unreachable.
    assert proc.failed
    assert isinstance(proc.value, (NetworkError, LinkDownError))

    injector.heal_link("a", "b")
    assert world.network.link("a", "b").up
    assert world.transport.link("a", "b").up
    ok = world.sim.process(send())
    world.sim.run()
    assert ok.triggered and not ok.failed


def test_drop_window_swallows_messages(world):
    injector = FaultInjector(world, FaultPlan.parse(["drop:a/b:1.0@0-10000"]))
    injector.schedule()

    def send():
        yield from world.transport.deliver("a", "b", 1000)

    proc = world.sim.process(send())
    world.sim.run(until=20_000.0)
    # The message vanished: delivery neither completes nor errors.
    assert not proc.triggered
    assert world.transport.messages_dropped == 1


def test_drop_window_expires(world):
    injector = FaultInjector(world, FaultPlan.parse(["drop:a/b:1.0@0-100"]))
    injector.schedule()

    def send():
        yield from world.transport.deliver("a", "b", 1000)

    world.sim.run(until=200.0)  # let the window lapse
    proc = world.sim.process(send())
    world.sim.run()
    assert proc.triggered and not proc.failed
    assert world.transport.messages_dropped == 0


def test_delay_window_adds_latency(world):
    injector = FaultInjector(world, FaultPlan.parse(["delay:a/b:100@0-60000"]))
    injector.schedule()
    done = []

    def send():
        yield from world.transport.deliver("a", "b", 10_000)
        done.append(world.sim.now)

    world.sim.process(send())
    world.sim.run(until=60_000.0)
    # Undisturbed: 10 ms serialization (10 kB @ 8 Mb/s) + 10 ms latency.
    assert done == [pytest.approx(100.0 + 10.0 + 10.0)]


def test_drop_probability_zero_never_drops(world):
    injector = FaultInjector(world, FaultPlan.parse(["drop:a/b:0.0@0-10000"]))
    injector.schedule()

    def send():
        yield from world.transport.deliver("a", "b", 1000)

    proc = world.sim.process(send())
    world.sim.run(until=10_000.0)
    assert proc.triggered and not proc.failed


def test_injection_metrics_and_applied_log(world):
    plan = FaultPlan.parse(["crash:c@100", "restart:c@200"])
    injector = FaultInjector(world, plan)
    injector.schedule()
    world.sim.run(until=300.0)
    assert [a.kind for a in injector.applied] == ["crash", "restart"]
    counters = world.obs.metrics.snapshot()["counters"]
    assert counters["faults.injected{kind=crash,subject=c}"] == 1
    assert counters["faults.injected{kind=restart,subject=c}"] == 1


# -- network splits -----------------------------------------------------------

def test_split_severs_cross_group_links_only(world):
    injector = FaultInjector(world)
    severed = injector.split_network((("a",), ("b", "c")))
    assert severed == [("a", "b")]  # b-c is intra-group: untouched
    assert not world.network.link("a", "b").up
    assert not world.transport.link("a", "b").up
    assert world.network.link("b", "c").up


def test_split_ignores_ungrouped_nodes(world):
    injector = FaultInjector(world)
    severed = injector.split_network((("a",), ("b",)))
    assert severed == [("a", "b")]
    assert world.network.link("b", "c").up  # c in no group: keeps links


def test_split_window_auto_heals(world):
    plan = FaultPlan.parse(["split:a|b,c@100-500"])
    FaultInjector(world, plan).schedule()
    world.sim.run(until=200.0)
    assert not world.network.link("a", "b").up
    world.sim.run(until=600.0)
    assert world.network.link("a", "b").up
    assert world.transport.link("a", "b").up
    counters = world.obs.metrics.snapshot()["counters"]
    assert counters["faults.injected{kind=split,subject=a|b,c}"] == 1


def test_split_skips_already_down_links(world):
    injector = FaultInjector(world)
    injector.partition_link("a", "b")
    assert injector.split_network((("a",), ("b", "c"))) == []


# -- message-fault windows (duplicate / reorder / corrupt) --------------------

def test_duplicate_window_yields_verdict_on_route(world):
    plan = FaultPlan.parse(["duplicate:a/b:1.0@0-10000"])
    injector = FaultInjector(world, plan)
    injector.schedule()
    world.sim.run(until=1.0)  # let the window-open event fire
    # The a->c route crosses a-b: the window matches.
    assert injector._message_verdicts("a", "c") == ("duplicate",)
    # The b->c route does not touch a-b.
    assert injector._message_verdicts("b", "c") == ()


def test_corrupt_window_yields_verdict(world):
    plan = FaultPlan.parse(["corrupt:b/c:1.0@0-10000"])
    injector = FaultInjector(world, plan)
    injector.schedule()
    world.sim.run(until=1.0)
    assert injector._message_verdicts("a", "c") == ("corrupt",)


def test_reorder_window_yields_bounded_hold(world):
    plan = FaultPlan.parse(["reorder:a/b:50@0-10000"])
    injector = FaultInjector(world, plan)
    injector.schedule()
    world.sim.run(until=1.0)
    verdicts = injector._message_verdicts("a", "b")
    assert len(verdicts) == 1
    kind, hold = verdicts[0]
    assert kind == "reorder"
    assert 0.0 < hold <= 50.0


def test_message_window_expires(world):
    plan = FaultPlan.parse(["duplicate:a/b:1.0@0-100"])
    injector = FaultInjector(world, plan)
    injector.schedule()
    world.sim.run(until=200.0)
    assert injector._message_verdicts("a", "b") == ()


def test_message_verdicts_probability_zero_never_fires(world):
    plan = FaultPlan.parse(["duplicate:a/b:0.0@0-10000", "corrupt:a/b:0.0@0-10000"])
    injector = FaultInjector(world, plan)
    injector.schedule()
    world.sim.run(until=1.0)
    for _ in range(20):
        assert injector._message_verdicts("a", "b") == ()


def test_message_verdicts_on_disconnected_route_are_empty(world):
    plan = FaultPlan.parse(["duplicate:a/b:1.0@0-10000"])
    injector = FaultInjector(world, plan)
    injector.schedule()
    world.sim.run(until=1.0)
    injector.partition_link("a", "b")
    # No route: the transport itself reports unreachability; no verdicts.
    assert injector._message_verdicts("a", "c") == ()


def test_schedule_rejects_invalid_plan(world):
    from repro.faults import FaultPlanError

    plan = FaultPlan.parse(["crash:b@100", "crash:b@100"])
    with pytest.raises(FaultPlanError):
        FaultInjector(world, plan).schedule()
