"""Property tests for the topology partitioner.

The partitioner feeds the conservative kernel, so its invariants are
load-bearing: every node in exactly one partition (coverage +
disjointness), strictly positive lookahead on every channel (zero
lookahead deadlocks null-message synchronization), and clean
degeneration to a single partition — i.e. the sequential kernel — when
no legal split exists.
"""

import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.topology_fig5 import SITES, build_fig5_network
from repro.network import BriteConfig, Network, generate_waxman
from repro.sim.parallel import (
    Partition,
    PartitionError,
    PartitionPlan,
    TrafficConfig,
    partition_network,
    run_parallel,
    site_traffic_program,
)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 1000), st.integers(6, 24))
def test_every_node_in_exactly_one_partition(seed, n_nodes):
    """Coverage + disjointness over random Waxman topologies (BRITE
    nodes carry a generated ``site`` credential)."""
    net = generate_waxman(BriteConfig(n_nodes=n_nodes, seed=seed))
    plan = partition_network(net)
    all_nodes = sorted(net.node_names())
    seen = [n for p in plan.partitions for n in p.nodes]
    assert sorted(seen) == all_nodes  # every node exactly once
    assert len(seen) == len(set(seen))
    for p in plan.partitions:
        for n in p.nodes:
            assert plan.rank_of[n] == p.rank


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 1000), st.integers(6, 24))
def test_lookahead_strictly_positive(seed, n_nodes):
    """Every channel of every multi-partition plan has lookahead > 0,
    and every cut link's latency is at least the channel lookahead."""
    net = generate_waxman(BriteConfig(n_nodes=n_nodes, seed=seed))
    plan = partition_network(net)
    if len(plan) > 1:
        assert plan.min_lookahead_ms > 0
        for value in plan.lookahead_ms.values():
            assert value > 0
        for cut in plan.cuts:
            assert cut.latency_ms >= plan.lookahead_ms[(cut.src_rank, cut.dst_rank)]
    else:
        # Single partition: either a uniform credential or a degenerate
        # collapse — both legal, both channel-free.
        assert not plan.cuts
        assert plan.min_lookahead_ms == float("inf")


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 4))
def test_fig5_partitions_by_site_credential(clients_per_site):
    topo = build_fig5_network(clients_per_site=clients_per_site)
    plan = partition_network(topo.network)
    assert plan.method == "credential:site"
    assert tuple(p.name for p in plan.partitions) == tuple(sorted(SITES))
    # Channel lookaheads are the Figure 5 inter-site link latencies.
    assert plan.min_lookahead_ms == 100.0
    for name in topo.network.node_names():
        assert name in plan.partitions[plan.rank_of[name]].nodes


def _uniform_site_network() -> Network:
    net = Network()
    for i in range(4):
        net.add_node(f"n{i}-client", credentials={"site": "solo"})
    for i in range(3):
        net.add_link(f"n{i}-client", f"n{i + 1}-client", latency_ms=1.0)
    return net


def test_uniform_credential_degrades_to_sequential_kernel():
    """A single-site topology yields one partition, zero channels, and
    run_parallel collapses to one in-process worker — the plain
    sequential kernel (origin 0, no ingress, no null messages)."""
    net = _uniform_site_network()
    plan = partition_network(net)
    assert len(plan) == 1
    assert not plan.cuts
    assert plan.min_lookahead_ms == float("inf")

    cfg = TrafficConfig(seed=5, messages_per_client=10)
    result = run_parallel(
        net, site_traffic_program, cfg, workers=4, until=5_000.0
    )
    assert result.workers_used == 1  # capped at the partition count
    [(name, part)] = result.partitions.items()
    assert part["events"] > 0
    assert part["messages_out"] == part["messages_in"] == 0
    counters = result.merged_counters()
    assert "remote_sent" not in counters
    assert counters["local_delivered"] == 4 * 10


def test_zero_latency_cut_rejected():
    """A credential split whose only cut link has zero latency is not a
    legal conservative plan: it degenerates to one partition."""
    net = Network()
    net.add_node("a", credentials={"site": "east"})
    net.add_node("b", credentials={"site": "west"})
    net.add_link("a", "b", latency_ms=0.0)
    plan = partition_network(net)
    assert len(plan) == 1
    assert plan.method == "degenerate:site-zero-cut"


def test_missing_credential_runs_as_one_partition():
    """Strip the site credentials from Figure 5: with no node-complete
    credential there is no split, so the run is one partition."""
    topo = build_fig5_network(clients_per_site=2)
    stripped = Network()
    for node in topo.network.nodes():
        stripped.add_node(node.name, node.cpu_capacity)  # no credentials
    for link in topo.network.links():
        stripped.add_link(
            link.a, link.b, link.latency_ms, link.bandwidth_mbps, link.secure
        )
    plan = partition_network(stripped)
    assert plan.method == "degenerate:no-site"
    assert len(plan) == 1
    assert not plan.cuts
    assert plan.partitions[0].nodes == tuple(sorted(stripped.node_names()))


def test_empty_network_raises():
    with pytest.raises(PartitionError):
        partition_network(Network())


# -- placement: which partitions share a worker --------------------------------


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 1000), st.integers(6, 24), st.integers(1, 12))
def test_placement_is_a_balanced_partition_of_the_ranks(seed, n_nodes, workers):
    plan = partition_network(generate_waxman(BriteConfig(n_nodes=n_nodes, seed=seed)))
    placement = plan.placement(workers)
    used = min(workers, len(plan))
    assert len(placement) == used
    assert all(placement), "a worker was left empty"
    assert sorted(r for ranks in placement for r in ranks) == list(range(len(plan)))
    assert max(map(len, placement)) <= math.ceil(len(plan) / used)
    # canonical form: ranks sorted inside a worker, workers by lowest rank
    assert placement == sorted(sorted(ranks) for ranks in placement)
    assert plan.placement(workers) == placement  # a function of the plan


def test_fig5_placement_keeps_the_tightest_channel_in_process():
    """sandiego<->seattle is the 100 ms channel; on two workers it must
    not be the one that crosses the process boundary."""
    plan = partition_network(build_fig5_network(clients_per_site=2).network)
    assert plan.lookahead_ms[(1, 2)] == plan.min_lookahead_ms == 100.0
    assert plan.placement(1) == [[0, 1, 2]]
    assert plan.placement(2) == [[0], [1, 2]]
    for workers in (3, 4, 9):
        assert plan.placement(workers) == [[0], [1], [2]]


def _ring_plan(lookaheads, nodes_per_partition=None):
    """P single-channel-pair partitions on a ring; ``lookaheads[r]``
    joins rank r to rank r+1."""
    n = len(lookaheads)
    sizes = nodes_per_partition or [1] * n
    partitions = tuple(
        Partition(r, f"p{r}", tuple(f"p{r}n{i}" for i in range(sizes[r])))
        for r in range(n)
    )
    look = {}
    for r, value in enumerate(lookaheads):
        look[(r, (r + 1) % n)] = look[((r + 1) % n, r)] = value
    rank_of = {node: p.rank for p in partitions for node in p.nodes}
    return PartitionPlan(partitions, rank_of, (), look, "synthetic")


def test_placement_never_merges_itself_into_a_corner():
    """Ten partitions whose tight channels pair them up 2+2+2+2+2: on
    four workers (cap 3) five pairs cannot be packed, so the fifth pair
    must not form."""
    plan = _ring_plan([1.0, 100.0] * 5)
    placement = plan.placement(4)
    assert sorted(map(len, placement)) == [2, 2, 3, 3]
    assert sorted(r for ranks in placement for r in ranks) == list(range(10))
    # every pair that did form is one of the 1 ms channels
    assert sum(1 for a in range(0, 10, 2) if any(
        a in ranks and a + 1 in ranks for ranks in placement)) == 4


def test_placement_breaks_lookahead_ties_by_node_count_then_rank():
    # all channels equal: the lightest merged pair wins, here {1, 2}
    plan = _ring_plan([50.0, 50.0, 50.0], nodes_per_partition=[9, 2, 3])
    assert plan.placement(2) == [[0], [1, 2]]
    # all equal, all the same weight: lowest ranks win
    plan = _ring_plan([50.0, 50.0, 50.0])
    assert plan.placement(2) == [[0, 1], [2]]


def test_placement_packs_partitions_no_channel_joins():
    partitions = tuple(Partition(r, f"p{r}", (f"n{r}",)) for r in range(5))
    plan = PartitionPlan(
        partitions, {f"n{r}": r for r in range(5)}, (), {}, "synthetic"
    )
    assert plan.placement(2) == [[0, 2, 4], [1, 3]]
    assert plan.placement(5) == [[0], [1], [2], [3], [4]]


def test_placement_is_identical_in_another_process():
    """No dependence on hash seeds or set iteration order."""
    script = (
        "import json\n"
        "from repro.network import BriteConfig, generate_waxman\n"
        "from repro.sim.parallel import partition_network\n"
        "plan = partition_network(generate_waxman(BriteConfig(n_nodes=24, seed=5)))\n"
        "print(json.dumps([plan.placement(w) for w in range(1, len(plan) + 1)]))\n"
    )
    outputs = set()
    for hash_seed in ("0", "1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        outputs.add(done.stdout.strip())
    assert len(outputs) == 1
    plan = partition_network(generate_waxman(BriteConfig(n_nodes=24, seed=5)))
    assert len(plan) > 2  # the comparison is not vacuous
    here = [plan.placement(w) for w in range(1, len(plan) + 1)]
    assert json.loads(outputs.pop()) == here
