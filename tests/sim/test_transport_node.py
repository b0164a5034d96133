"""Tests for SimLink and SimNode."""

import pytest

from repro.sim import (
    LinkDownError,
    NodeDownError,
    SimHalfLink,
    SimLink,
    SimNode,
    Simulator,
    transfer_time_ms,
)


def test_transfer_time_formula():
    # 10 kB over 8 Mb/s: 80000 bits / 8e6 bps = 10 ms + 400 latency
    assert transfer_time_ms(10_000, 8.0, 400.0) == pytest.approx(410.0)
    assert transfer_time_ms(0, 8.0, 400.0) == pytest.approx(400.0)
    # non-positive bandwidth = pure latency
    assert transfer_time_ms(10_000, 0.0, 5.0) == pytest.approx(5.0)


def test_transfer_time_negative_size():
    with pytest.raises(ValueError):
        transfer_time_ms(-1, 8.0, 1.0)


def test_link_transfer_latency_plus_serialization():
    sim = Simulator()
    link = SimLink(sim, "a", "b", latency_ms=400, bandwidth_mbps=8, secure=False)
    done = []

    def sender():
        yield from link.transfer("a", 10_000)
        done.append(sim.now)

    sim.process(sender())
    sim.run()
    assert done == [pytest.approx(410.0)]
    assert link.bytes_carried == 10_000


def test_link_serialization_queues_same_direction():
    sim = Simulator()
    link = SimLink(sim, "a", "b", latency_ms=100, bandwidth_mbps=8)
    done = []

    def sender(tag):
        yield from link.transfer("a", 10_000)  # 10 ms serialization each
        done.append((sim.now, tag))

    sim.process(sender("x"))
    sim.process(sender("y"))
    sim.run()
    # Second transfer waits for the first's serialization, then both
    # propagate: 10+100 and 20+100.
    assert done == [(pytest.approx(110.0), "x"), (pytest.approx(120.0), "y")]


def test_link_full_duplex_directions_independent():
    sim = Simulator()
    link = SimLink(sim, "a", "b", latency_ms=100, bandwidth_mbps=8)
    done = []

    def sender(src, tag):
        yield from link.transfer(src, 10_000)
        done.append((sim.now, tag))

    sim.process(sender("a", "fwd"))
    sim.process(sender("b", "rev"))
    sim.run()
    assert [t for t, _ in done] == [pytest.approx(110.0), pytest.approx(110.0)]


def test_link_other_end():
    link = SimLink(Simulator(), "a", "b", 1, 1)
    assert link.other_end("a") == "b"
    assert link.other_end("b") == "a"
    with pytest.raises(ValueError):
        link.other_end("c")


def test_link_negative_latency_rejected():
    with pytest.raises(ValueError):
        SimLink(Simulator(), "a", "b", latency_ms=-1, bandwidth_mbps=1)


@pytest.mark.parametrize(
    "latency_ms, bandwidth_mbps",
    [(float("nan"), 1), (1, float("nan"))],
    ids=["nan-latency", "nan-bandwidth"],
)
def test_link_nan_latency_or_bandwidth_rejected(latency_ms, bandwidth_mbps):
    with pytest.raises(ValueError):
        SimLink(Simulator(), "a", "b", latency_ms, bandwidth_mbps)


@pytest.mark.parametrize(
    "latency_ms, bandwidth_mbps",
    [(-1, 1), (float("nan"), 1), (1, float("nan"))],
    ids=["negative-latency", "nan-latency", "nan-bandwidth"],
)
def test_half_link_bad_latency_or_bandwidth_rejected(latency_ms, bandwidth_mbps):
    with pytest.raises(ValueError):
        SimHalfLink(Simulator(), "a", "b", latency_ms, bandwidth_mbps)


def test_infinite_bandwidth_is_pure_latency():
    sim = Simulator()
    link = SimLink(sim, "a", "b", latency_ms=5, bandwidth_mbps=0)
    done = []

    def sender():
        yield from link.transfer("a", 10**9)
        done.append(sim.now)

    sim.process(sender())
    sim.run()
    assert done == [pytest.approx(5.0)]


def test_node_service_time():
    sim = Simulator()
    node = SimNode(sim, "n", cpu_capacity=1000)
    assert node.service_time_ms(5) == pytest.approx(5.0)
    assert node.service_time_ms(0) == 0.0
    with pytest.raises(ValueError):
        node.service_time_ms(-1)


def test_node_execute_serializes_jobs():
    sim = Simulator()
    node = SimNode(sim, "n", cpu_capacity=1000)
    done = []

    def job(tag):
        yield from node.execute(10)  # 10 ms each
        done.append((sim.now, tag))

    sim.process(job("a"))
    sim.process(job("b"))
    sim.run()
    assert done == [(pytest.approx(10.0), "a"), (pytest.approx(20.0), "b")]


def test_node_bad_capacity():
    with pytest.raises(ValueError):
        SimNode(Simulator(), "n", cpu_capacity=0)


def test_node_nan_capacity_rejected():
    with pytest.raises(ValueError):
        SimNode(Simulator(), "n", cpu_capacity=float("nan"))


# -- liveness checks on the transfer / execute paths --------------------------


def _outcome(sim, generator):
    proc = sim.process(generator)
    sim.run()
    return proc


def test_partitioned_link_refuses_a_new_transfer():
    sim = Simulator()
    link = SimLink(sim, "a", "b", latency_ms=5.0, bandwidth_mbps=8.0)
    link.fail()
    proc = _outcome(sim, link.transfer("a", 1_000))
    assert proc.failed and isinstance(proc.value, LinkDownError)
    assert "is partitioned" in str(proc.value)
    assert sim.now == 0.0 and link.bytes_carried == 0


def test_link_partitioned_mid_serialization_loses_the_transfer():
    sim = Simulator()
    link = SimLink(sim, "a", "b", latency_ms=5.0, bandwidth_mbps=8.0)
    sim.call_at(0.5, link.fail)  # 1000 B at 8 Mb/s serializes in 1 ms
    proc = _outcome(sim, link.transfer("a", 1_000))
    assert proc.failed and isinstance(proc.value, LinkDownError)
    assert "mid-transfer" in str(proc.value)
    assert sim.now == 1.0  # failed after serialization, before latency
    assert link.bytes_carried == 0
    assert link._tx["a"]._in_use == 0  # the transmit slot was released


def test_crashed_node_refuses_work():
    sim = Simulator()
    node = SimNode(sim, "n", cpu_capacity=1000.0)
    node.crash()
    proc = _outcome(sim, node.execute(10.0))
    assert proc.failed and isinstance(proc.value, NodeDownError)
    assert "is down" in str(proc.value)


def test_node_crashing_mid_execution_kills_the_job():
    sim = Simulator()
    node = SimNode(sim, "n", cpu_capacity=1000.0)
    sim.call_at(4.0, node.crash)  # 10 units at 1000/s take 10 ms
    proc = _outcome(sim, node.execute(10.0))
    assert proc.failed and isinstance(proc.value, NodeDownError)
    assert "crashed during execution" in str(proc.value)
    assert sim.now == 10.0
    assert node.cpu._in_use == 0


def test_negative_cpu_work_rejected_before_anything_is_scheduled():
    sim = Simulator()
    node = SimNode(sim, "n")
    proc = _outcome(sim, node.execute(-1.0))
    assert proc.failed and isinstance(proc.value, ValueError)
    assert node.cpu._in_use == 0
