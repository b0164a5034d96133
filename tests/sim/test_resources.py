"""Tests for Resource and Monitor."""

import pytest

from repro.sim import Monitor, Resource, Simulator


def test_resource_serializes_fifo():
    sim = Simulator()
    r = Resource(sim, capacity=1)
    order = []

    def worker(i):
        yield from r.use(10)
        order.append((sim.now, i))

    for i in range(3):
        sim.process(worker(i))
    sim.run()
    assert order == [(10.0, 0), (20.0, 1), (30.0, 2)]


def test_resource_capacity_two_runs_pairs():
    sim = Simulator()
    r = Resource(sim, capacity=2)
    order = []

    def worker(i):
        yield from r.use(10)
        order.append((sim.now, i))

    for i in range(4):
        sim.process(worker(i))
    sim.run()
    assert [t for t, _ in order] == [10.0, 10.0, 20.0, 20.0]


def test_resource_release_without_request():
    sim = Simulator()
    r = Resource(sim, capacity=1)
    with pytest.raises(RuntimeError):
        r.release()


def test_resource_bad_capacity():
    with pytest.raises(ValueError):
        Resource(Simulator(), capacity=0)


def test_resource_queue_length_and_in_use():
    sim = Simulator()
    r = Resource(sim, capacity=1)

    def holder():
        yield from r.use(50)

    def waiter():
        yield from r.use(1)

    sim.process(holder())
    sim.process(waiter())
    sim.run(until=10)
    assert r._in_use == 1
    assert r.queue_length == 1
    sim.run()
    assert r._in_use == 0


def test_resource_utilization():
    sim = Simulator()
    r = Resource(sim, capacity=1)

    def worker():
        yield from r.use(50)

    sim.process(worker())
    sim.run(until=100)
    assert r.busy_area() / (sim.now * r.capacity) == pytest.approx(0.5)


def test_release_hands_slot_to_waiter_exactly_once():
    sim = Simulator()
    r = Resource(sim, capacity=1)
    concurrent = []

    def worker(i):
        yield r.request()
        concurrent.append(r._in_use)
        try:
            yield sim.timeout(5)
        finally:
            r.release()

    for i in range(3):
        sim.process(worker(i))
    sim.run()
    assert all(c == 1 for c in concurrent)


def test_monitor_stats():
    m = Monitor("test")
    for v in [1.0, 2.0, 3.0, 4.0]:
        m.observe(v)
    assert m.count == 4
    assert m.mean == pytest.approx(2.5)
    assert m.minimum == 1.0
    assert m.maximum == 4.0
    assert m.total == 10.0
    assert m.percentile(0) == 1.0
    assert m.percentile(100) == 4.0
    assert m.percentile(50) in (2.0, 3.0)


def test_monitor_empty():
    m = Monitor()
    assert m.count == 0
    assert m.mean == 0.0
    assert m.percentile(50) == 0.0


def test_monitor_percentile_bounds():
    empty, one = Monitor(), Monitor()
    one.observe(1.0)
    for m in (empty, one):  # a bad p is rejected with or without samples
        for p in (101, 150, -1, float("nan")):
            with pytest.raises(ValueError):
                m.percentile(p)


def test_release_after_balanced_use_is_still_rejected():
    sim = Simulator()
    r = Resource(sim, capacity=2)
    r.request()
    r.release()
    assert r._in_use == 0
    with pytest.raises(RuntimeError, match="without matching request"):
        r.release()
    assert r._in_use == 0


def test_busy_area_integrates_across_grants_handoffs_and_releases():
    """request()/release() settle the busy integral themselves; a slot
    handed straight to a waiter stays busy throughout."""
    sim = Simulator()
    r = Resource(sim, capacity=1)

    def job(start, hold):
        yield sim.timeout(start)
        yield r.request()
        yield sim.timeout(hold)
        r.release()

    sim.process(job(10.0, 20.0))  # holds 10..30
    sim.process(job(15.0, 5.0))   # waits, holds 30..35 (hand-off)
    sim.process(job(50.0, 10.0))  # holds 50..60 after an idle gap
    sim.run(until=100.0)
    assert r.busy_area() == pytest.approx(35.0)
    assert r._in_use == 0 and r.queue_length == 0
