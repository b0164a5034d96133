"""Conservative parallel kernel: determinism, ordering, and physics.

Three layers of assurance:

1. **Engine tiebreaker** — the kernel heap orders equal-timestamp
   events by ``(when, origin, seq)``, so merged remote events land in a
   total, plan-determined order and sequential runs (origin 0 only)
   keep exact FIFO schedule order.
2. **Cross-worker determinism** — the acceptance criterion: identical
   run signatures for workers 1/2/4 on the Figure 5 topology, per seed.
3. **Analytic relay physics** — a hand-built three-partition line where
   the end-to-end delivery time of a relayed message is computable on
   paper (think + serialization + latency per hop).
"""

import multiprocessing
import os
import random
import socket
import threading
import time
from types import SimpleNamespace

import pytest

from repro.experiments.topology_fig5 import build_fig5_network
from repro.network import Network
from repro.sim import Injected, SimulationError, Simulator
from repro.sim.parallel import (
    Advert,
    RemoteMessage,
    TrafficConfig,
    partition_network,
    run_parallel,
    site_traffic_program,
)
from repro.sim.parallel.runner import _run_placed
from repro.sim.parallel.worker import InlineRouter, SocketRouter, drive


# -- engine tiebreaker ----------------------------------------------------


def test_external_events_order_by_origin_then_seq():
    """At one timestamp: local events (origin 0) first, then remote
    origins ascending, then per-origin sequence numbers ascending —
    regardless of arrival (push) order."""
    sim = Simulator()
    order = []

    def local():
        yield sim.timeout(5.0)
        order.append("local")

    sim.process(local())
    # Push externals deliberately scrambled.
    for origin, seq in ((2, 1), (1, 2), (1, 1)):
        ev = Injected(sim, (origin, seq))
        ev.add_callback(lambda e: order.append(e.payload))
        sim.schedule_external(5.0, origin, seq, ev)
    sim.run(until=10.0)
    assert order == ["local", (1, 1), (1, 2), (2, 1)]


def test_schedule_external_rejects_past_timestamps():
    """The causality tripwire: a conservative bug that lets a remote
    event slip behind the local clock must fail loudly, not silently
    reorder history."""
    sim = Simulator()

    def spin():
        yield sim.timeout(10.0)

    sim.process(spin())
    sim.run(until=20.0)
    with pytest.raises(SimulationError, match="causality"):
        sim.schedule_external(5.0, 1, 1, Injected(sim, None))


def test_sequential_fifo_order_unchanged():
    """Origin defaults to 0 and local seq is monotone, so equal-time
    events still run in exact schedule order — the byte-identity
    foundation for ``parallel=False``."""
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in range(6):
        sim.process(proc(tag))
    sim.run(until=2.0)
    assert order == list(range(6))


# -- cross-worker determinism ---------------------------------------------


def _fig5_run(workers: int, seed: int):
    topo = build_fig5_network(clients_per_site=2)
    cfg = TrafficConfig(
        seed=seed,
        messages_per_client=20,
        remote_fraction=0.2,
        think_mean_ms=20.0,
    )
    return run_parallel(
        topo.network, site_traffic_program, cfg, workers=workers, until=8_000.0
    )


@pytest.mark.parametrize("seed", [0, 1])
def test_identical_signatures_across_worker_counts(seed):
    runs = {w: _fig5_run(w, seed) for w in (1, 2, 4)}
    sigs = {w: r.signature() for w, r in runs.items()}
    assert sigs[1] == sigs[2] == sigs[4], sigs
    # Placement facts: 3 site partitions cap the worker count at 3.
    assert runs[1].workers_used == 1
    assert runs[2].workers_used == 2
    assert runs[4].workers_used == 3
    assert runs[1].total_events == runs[4].total_events > 0
    assert runs[1].merged_counters() == runs[4].merged_counters()
    assert runs[1].merged_counters().get("remote_delivered", 0) > 0


def test_different_seeds_differ():
    """The signature actually discriminates: different traffic seeds
    must not collide."""
    assert _fig5_run(1, 0).signature() != _fig5_run(1, 1).signature()


# -- analytic relay physics ------------------------------------------------

#: 125 kB at 100 Mb/s serializes in exactly 10 ms.
PROBE_BYTES = 125_000


def _line_network() -> Network:
    net = Network()
    for name, site in (("a-node", "A"), ("b-node", "B"), ("c-node", "C")):
        net.add_node(name, credentials={"site": site})
    net.add_link("a-node", "b-node", latency_ms=100.0, bandwidth_mbps=100.0)
    net.add_link("b-node", "c-node", latency_ms=150.0, bandwidth_mbps=100.0)
    return net


def test_relay_latency_matches_hand_computation():
    """One probe a->c across a three-partition line, inline workers=1
    (closures can't cross process boundaries, and don't need to).

    Timeline: think 10 + serialize 10 + link 100 (arrive B at 120),
    relay: serialize 10 + link 150 -> delivered at C at t=280 ms.
    """
    arrivals = []

    def program(ctx, config):
        def on_probe(c, msg):
            if c.is_local(msg.dest):
                c.count("delivered")
                arrivals.append((c.partition.name, c.sim.now, msg.payload))
            else:
                c.count("relayed")
                c.process(
                    c.send_remote(msg.via, msg.dest, msg.size, "probe", msg.payload)
                )

        ctx.on_message("probe", on_probe)
        if ctx.is_local("a-node"):

            def sender():
                yield ctx.sim.timeout(10.0)
                yield from ctx.send_remote(
                    "a-node", "c-node", PROBE_BYTES, "probe", ctx.sim.now
                )

            ctx.process(sender())

    result = run_parallel(_line_network(), program, None, workers=1, until=2_000.0)
    assert arrivals == [("C", 280.0, 10.0)]
    counters = result.merged_counters()
    assert counters["relayed"] == 1
    assert counters["delivered"] == 1


# -- argument validation ---------------------------------------------------


def test_run_parallel_validates_arguments():
    net = _line_network()

    def noop(ctx, config):
        pass

    with pytest.raises(SimulationError, match="until"):
        run_parallel(net, noop, None, workers=1, until=0.0)
    with pytest.raises(SimulationError, match="workers"):
        run_parallel(net, noop, None, workers=0, until=100.0)


def test_run_parallel_rejects_a_nan_horizon():
    """NaN passes ``until <= 0``; the LPs' ``now >= until`` then never
    holds and the run spins for ever instead of failing."""
    topo = build_fig5_network(clients_per_site=1)
    cfg = TrafficConfig(seed=7, messages_per_client=5)
    with pytest.raises(SimulationError, match="until"):
        run_parallel(
            topo.network, site_traffic_program, cfg, workers=1,
            until=float("nan"), deadlock_timeout_s=3,
        )


# -- deadlock tripwire -----------------------------------------------------


class _StuckLP:
    """An LP that never advances, never finishes, and sends nothing —
    the shape of a guarantee-algebra bug in inline mode."""

    def __init__(self):
        self.plan = SimpleNamespace(
            partitions=[SimpleNamespace(name="newyork")],
            out_neighbors=lambda rank: [],
        )
        self.sim = SimpleNamespace(now=123.0)

    def advance(self):
        return False

    def take_outgoing(self):
        return []

    def take_advert(self):
        return None

    def done(self):
        return False

    def horizon(self):
        return 456.0


def test_deadlock_tripwire_names_stalled_partitions():
    """A quiescent-but-undone inline drive must raise — and the error
    must name the stuck partition and the knob that raises the limit."""
    lps = {0: _StuckLP()}
    with pytest.raises(SimulationError) as excinfo:
        drive(lps, InlineRouter(lps), deadlock_timeout_s=1.0)
    message = str(excinfo.value)
    assert "parallel deadlock" in message
    assert "newyork" in message
    assert "123.0" in message and "456.0" in message
    assert "deadlock_timeout_s" in message
    assert "--deadlock-timeout" in message


def test_run_parallel_forwards_deadlock_timeout():
    """The knob plumbs through the public entry point: a healthy run
    with a tiny tripwire still completes (progress resets the clock)."""
    arrivals = []

    def program(ctx, config):
        def on_probe(c, msg):
            if c.is_local(msg.dest):
                arrivals.append((c.partition.name, c.sim.now))
            else:
                c.process(
                    c.send_remote(msg.via, msg.dest, msg.size, "probe", msg.payload)
                )

        ctx.on_message("probe", on_probe)
        if ctx.is_local("a-node"):

            def sender():
                yield ctx.sim.timeout(10.0)
                yield from ctx.send_remote(
                    "a-node", "c-node", 1_000, "probe", None
                )

            ctx.process(sender())

    run_parallel(
        _line_network(), program, None,
        workers=1, until=2_000.0, deadlock_timeout_s=5.0,
    )
    assert [name for name, _t in arrivals] == ["C"]


# -- placement is invisible to results --------------------------------------------


def test_every_placement_and_worker_count_yields_one_signature():
    topo = build_fig5_network(clients_per_site=2)
    cfg = TrafficConfig(
        seed=3, messages_per_client=20, remote_fraction=0.3, think_mean_ms=20.0
    )
    plan = partition_network(topo.network)

    def run(placement):
        return _run_placed(
            plan, topo.network, site_traffic_program, cfg, 8_000.0, placement
        )

    by_count = {w: run(plan.placement(w)) for w in (1, 2, 3, 4)}
    pairs = {
        str(placement): run(placement)
        for placement in ([[0], [1, 2]], [[0, 2], [1]], [[0, 1], [2]])
    }
    signatures = {r.signature() for r in (*by_count.values(), *pairs.values())}
    assert len(signatures) == 1
    assert by_count[1].merged_counters()["remote_delivered"] > 0
    assert by_count[4].workers_used == 3
    # ... and is reported: which channels crossed, and what that cost
    assert pairs["[[0, 2], [1]]"].min_cross_worker_lookahead_ms == 100.0
    assert pairs["[[0], [1, 2]]"].min_cross_worker_lookahead_ms == 200.0
    assert by_count[1].min_cross_worker_lookahead_ms is None
    assert by_count[2].placement == [[0], [1, 2]]


def test_sync_block_reports_each_worker_and_stays_out_of_the_signature():
    result = _fig5_run(2, seed=0)
    assert [row["ranks"] for row in result.sync] == result.placement == [[0], [1, 2]]
    for row in result.sync:
        assert row["rounds"] > 0 and row["adverts_sent"] > 0
        assert row["batches_sent"] > 0 and row["bytes_sent"] > row["batches_sent"]
        assert row["blocking_waits"] >= 0 and row["blocked_s"] >= 0.0
        assert row["threads_at_exit"] == 1  # no feeder thread
    out = result.as_dict()
    assert out["sync"] == result.sync and out["placement"] == [[0], [1, 2]]
    assert out["min_cross_worker_lookahead_ms"] == 200.0
    assert "rounds" in result.sync_summary()
    signature = result.signature()
    result.sync[0]["rounds"] += 1
    result.placement = [[0, 2], [1]]
    assert result.signature() == signature
    inline = _fig5_run(1, seed=0)
    assert [row["ranks"] for row in inline.sync] == [[0, 1, 2]]
    assert inline.sync[0]["batches_sent"] == inline.sync[0]["blocking_waits"] == 0


# -- channels ------------------------------------------------------------------------

BIG = 4 << 20


def _pair_network() -> Network:
    net = Network()
    net.add_node("a-node", credentials={"site": "A"})
    net.add_node("b-node", credentials={"site": "B"})
    net.add_link("a-node", "b-node", latency_ms=10.0, bandwidth_mbps=100.0)
    return net


def _big_exchange_program(ctx, config):
    """Each side posts one 4 MiB payload to the other at the same
    simulated instant, so both workers flush it in the same round."""
    here, there = ("a-node", "b-node") if ctx.is_local("a-node") else ("b-node", "a-node")

    def on_blob(c, msg):
        c.count("bytes_received", len(msg.payload))

    def sender():
        yield ctx.sim.timeout(1.0)
        yield from ctx.send_remote(here, there, 100, "blob", bytes(BIG))

    ctx.on_message("blob", on_blob)
    ctx.process(sender())


def test_two_workers_flushing_big_batches_at_each_other_do_not_deadlock():
    """4 MiB each way is far beyond a socket buffer: a worker that just
    waited for room to write would wait for ever, its peer doing the same."""
    tripwire_s = 20.0
    started = time.perf_counter()
    result = run_parallel(
        _pair_network(), _big_exchange_program, None,
        workers=2, until=100.0, deadlock_timeout_s=tripwire_s,
    )
    assert time.perf_counter() - started < tripwire_s
    assert result.workers_used == 2
    for part in result.partitions.values():
        assert part["counters"] == {"bytes_received": BIG}
    assert all(row["bytes_sent"] > BIG for row in result.sync)


class _RecordingLP:
    def __init__(self):
        self.seen = []

    def observe_message(self, msg):
        self.seen.append(("m", msg.seq, len(msg.payload)))

    def observe_advert(self, advert):
        self.seen.append(("a", advert.clock))


@pytest.fixture
def router_pair():
    """Factory: workers 0 and 1, hosting ranks 0 and 1, joined by one
    socket — ``(router0, lp0, router1, lp1)``."""
    ends = []

    def make(timeout_s=20.0):
        end0, end1 = socket.socketpair()
        ends.extend((end0, end1))
        placement = [[0], [1]]
        lp0, lp1 = _RecordingLP(), _RecordingLP()
        return (
            SocketRouter({0: lp0}, placement, {1: end0}, timeout_s), lp0,
            SocketRouter({1: lp1}, placement, {0: end1}, timeout_s), lp1,
        )

    yield make
    for sock in ends:
        sock.close()


def _message(seq, payload):
    return RemoteMessage(float(seq), 0, seq, "n", "n", "k", payload, float(seq), 1)


def test_channel_is_fifo_under_interleaved_message_and_advert_batches(router_pair):
    """Batches of every size — adverts only, messages only, mixed, some
    larger than the socket buffer so both ends see partial frames —
    arrive whole, once, in the order written."""
    sender, _, receiver, sink = router_pair()
    rng = random.Random(11)
    sent = []
    rounds = 120
    for seq in range(1, rounds + 1):
        for _ in range(rng.randrange(3)):
            sent.append(("a", float(seq)))
        size = rng.choice([0, 10, 1_000, 50_000, 700_000])
        sent.append(("m", seq, size))
        if rng.random() < 0.5:
            sent.append(("a", seq + 0.5))
    done = ("a", float("inf"))
    sent.append(done)

    def receive():
        deadline = time.monotonic() + 30.0
        while (not sink.seen or sink.seen[-1] != done) and time.monotonic() < deadline:
            receiver.poll(block=True)

    reader = threading.Thread(target=receive, daemon=True)
    reader.start()
    flushed_at = {rng.randrange(len(sent)) for _ in range(rounds)}
    for i, item in enumerate(sent):
        if item[0] == "a":
            sender.send_advert(1, Advert(0, item[1]))
        else:
            sender.send_message(1, _message(item[1], bytes(item[2])))
        if i in flushed_at:
            sender.flush_round()
    sender.flush_round()
    reader.join(timeout=30.0)
    assert not reader.is_alive()
    assert sink.seen == sent
    assert 1 < sender.batches_sent <= len(flushed_at) + 1
    assert sender.bytes_sent > 700_000


def test_routers_shut_down_together_and_discard_late_traffic(router_pair):
    """close() says bye, then drains until the peer has said it too —
    whichever finishes first — so nobody writes to a closed socket."""
    early, _, late, late_lp = router_pair()
    closer = threading.Thread(target=early.close, daemon=True)
    closer.start()
    for seq in range(1, 50):  # the late worker is still sending
        late.send_message(0, _message(seq, b"x" * 10_000))
        late.flush_round()
        late.poll(block=False)
    assert closer.is_alive()  # still draining: the late worker has not said bye
    late.close()
    closer.join(timeout=10.0)
    assert not closer.is_alive()
    assert late_lp.seen == []


@pytest.mark.parametrize("action", ["poll", "flush"])
def test_router_reports_a_peer_that_vanished_mid_run(router_pair, action):
    router, _, peer, _ = router_pair()
    peer._peers[0].close()  # no bye frame: the peer died
    with pytest.raises(SimulationError, match=r"worker 1 \(ranks \[1\]\) closed"):
        if action == "poll":
            router.poll(block=True)
        else:
            for seq in range(1, 4):  # the first write may still be buffered
                router.send_message(1, _message(seq, bytes(1 << 20)))
                router.flush_round()


def test_blocked_write_trips_the_deadlock_tripwire(router_pair):
    """A live peer that never reads: the write gives up after the same
    no-progress interval as a blocking poll."""
    router, _, _peer, _ = router_pair(timeout_s=2.0)
    router.send_message(1, _message(1, bytes(8 << 20)))
    started = time.perf_counter()
    with pytest.raises(SimulationError, match="parallel deadlock"):
        router.flush_round()
    assert 1.5 < time.perf_counter() - started < 10.0


# -- a worker that dies ----------------------------------------------------------------


def _dying_program(ctx, config):
    site_traffic_program(ctx, config)
    if ctx.rank == 1:

        def die():
            yield ctx.sim.timeout(500.0)
            os._exit(3)  # no exception, no result, no goodbye: like a SIGKILL

        ctx.process(die())


def test_a_dead_worker_fails_the_run_at_once():
    topo = build_fig5_network(clients_per_site=2)
    cfg = TrafficConfig(seed=1, messages_per_client=50, think_mean_ms=20.0)
    started = time.perf_counter()
    with pytest.raises(SimulationError) as excinfo:
        run_parallel(topo.network, _dying_program, cfg, workers=2, until=8_000.0)
    assert time.perf_counter() - started < 5.0
    message = str(excinfo.value)
    assert "worker 1 (ranks [1, 2]) died with exit code 3" in message
    assert not multiprocessing.active_children()
