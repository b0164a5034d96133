"""Substrate micro-benchmarks: event kernel, transport, crypto, routing.

Not a paper figure — these quantify the simulator this reproduction runs
on, so regressions in the hot paths (event heap, link transfer, mail cipher)
are visible.
"""

import itertools

import pytest

from repro.network import BriteConfig, generate_waxman
from repro.services.mail.crypto import decrypt, derive_key, encrypt
from repro.sim import Resource, SimLink, Simulator


def test_event_kernel_throughput(benchmark):
    """Schedule+dispatch cost of 10k timeout events."""

    def run():
        sim = Simulator()

        def ticker():
            for _ in range(10_000):
                yield sim.timeout(1.0)

        sim.process(ticker())
        sim.run()
        return sim.now

    assert benchmark(run) == 10_000.0


def test_resource_contention_throughput(benchmark):
    """1k jobs through a 4-slot resource."""

    def run():
        sim = Simulator()
        r = Resource(sim, 4)

        def worker():
            yield from r.use(1.0)

        for _ in range(1_000):
            sim.process(worker())
        sim.run()
        return sim.now

    assert benchmark(run) == pytest.approx(250.0)


def test_link_transfer_throughput(benchmark):
    """1k store-and-forward transfers on one link."""

    def run():
        sim = Simulator()
        link = SimLink(sim, "a", "b", latency_ms=1.0, bandwidth_mbps=100.0)

        def sender():
            for _ in range(1_000):
                yield from link.transfer("a", 10_000)

        sim.process(sender())
        sim.run()
        return link.bytes_carried

    assert benchmark(run) == 10_000_000


@pytest.mark.parametrize("size", [1024, 65_536], ids=["1KiB", "64KiB"])
def test_crypto_throughput(benchmark, size):
    """Encrypt + decrypt of a message the whole-message LRU has never
    seen: a counter prefix makes every round's payload fresh, so the
    cipher kernel is what runs (a constant payload times two LRU hits)."""
    key = derive_key("bench")
    filler = b"m" * (size - 8)
    rounds = itertools.count()

    def roundtrip():
        payload = next(rounds).to_bytes(8, "big") + filler
        return decrypt(key, encrypt(key, payload)) == payload

    assert benchmark(roundtrip)


def test_dijkstra_routing(benchmark):
    net = generate_waxman(BriteConfig(n_nodes=100, seed=7))
    names = net.node_names()

    def route_all():
        net._path_cache.clear()
        return sum(net.path(names[0], n).latency_ms for n in names[1:])

    assert benchmark(route_all) > 0
