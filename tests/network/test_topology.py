"""Tests for the static network model and routing."""

import pytest

from repro.network import LinkInfo, Network, NetworkError, NodeInfo, PathInfo


def triangle():
    net = Network()
    for n in "abc":
        net.add_node(n, cpu_capacity=1000, credentials={"site": n})
    net.add_link("a", "b", latency_ms=200, bandwidth_mbps=20, secure=False)
    net.add_link("b", "c", latency_ms=100, bandwidth_mbps=50, secure=False)
    net.add_link("a", "c", latency_ms=400, bandwidth_mbps=8, secure=False)
    return net


def test_duplicate_node_rejected():
    net = Network()
    net.add_node("a")
    with pytest.raises(NetworkError):
        net.add_node("a")


def test_link_requires_existing_nodes():
    net = Network()
    net.add_node("a")
    with pytest.raises(NetworkError):
        net.add_link("a", "b")


def test_self_link_rejected():
    net = Network()
    net.add_node("a")
    with pytest.raises(NetworkError):
        net.add_link("a", "a")


def test_duplicate_link_rejected_both_directions():
    net = Network()
    net.add_node("a")
    net.add_node("b")
    net.add_link("a", "b")
    with pytest.raises(NetworkError):
        net.add_link("b", "a")


@pytest.mark.parametrize("cpu_capacity", [0, -1.0, float("nan")])
def test_add_node_rejects_a_capacity_that_is_not_positive(cpu_capacity):
    with pytest.raises(ValueError):
        Network().add_node("a", cpu_capacity=cpu_capacity)


@pytest.mark.parametrize(
    "latency_ms, bandwidth_mbps",
    [(-3.0, 10.0), (float("nan"), 10.0), (1.0, float("nan"))],
    ids=["negative-latency", "nan-latency", "nan-bandwidth"],
)
def test_add_link_rejects_values_routing_cannot_order(latency_ms, bandwidth_mbps):
    net = Network()
    net.add_node("a")
    net.add_node("b")
    with pytest.raises(ValueError):
        net.add_link("a", "b", latency_ms=latency_ms, bandwidth_mbps=bandwidth_mbps)
    assert net.n_links == 0


def test_link_lookup_is_symmetric():
    net = triangle()
    assert net.link("a", "b") is net.link("b", "a")


def test_shortest_path_by_latency():
    net = triangle()
    p = net.path("a", "c")
    # a->b->c is 300 ms, beating the direct 400 ms link.
    assert [h.name for h in p.hops] == ["a<->b", "b<->c"]
    assert p.latency_ms == 300
    assert p.bandwidth_mbps == 20  # bottleneck
    assert not p.secure


def test_path_same_node_is_local():
    net = triangle()
    p = net.path("a", "a")
    assert p.is_local
    assert p.latency_ms == 0
    assert p.secure
    assert p.bandwidth_mbps == float("inf")
    assert p.transfer_time_ms(10**9) == 0.0


def test_path_disconnected_raises():
    net = Network()
    net.add_node("a")
    net.add_node("b")
    with pytest.raises(NetworkError):
        net.path("a", "b")


def test_path_cache_invalidated_on_mutation():
    net = triangle()
    assert net.path("a", "c").latency_ms == 300
    net.remove_link("a", "b")
    assert net.path("a", "c").latency_ms == 400


def test_touch_bumps_version_and_clears_cache():
    net = triangle()
    v = net.version
    p1 = net.path("a", "c")
    net.link("a", "b").latency_ms = 1000
    net.touch()
    assert net.version > v
    p2 = net.path("a", "c")
    assert p2.latency_ms == 400  # direct link now wins


def test_touch_reservations_moves_the_epoch_but_keeps_routes():
    net = triangle()
    route = net.path("a", "c")
    version, epoch, structure = net.version, net.state_fingerprint(), net.structure_version
    net.link("a", "b").reserved_mbps += 5
    net.touch_reservations()
    assert net.version == version + 1
    assert net.state_fingerprint() != epoch
    assert net.structure_version == structure
    assert net.path("a", "c") is route
    net.touch()
    assert net.structure_version == structure + 1
    assert net.path("a", "c") is not route


def test_link_named_follows_adds_removals_and_snapshots():
    net = triangle()
    assert net.link_named("a<->b") is net.link("b", "a")
    snap = net.snapshot()
    assert snap.link_named("a<->b") is snap.link("a", "b")
    assert snap.link_named("a<->b") is not net.link("a", "b")
    net.remove_link("a", "b")
    with pytest.raises(NetworkError):
        net.link_named("a<->b")
    assert net.link_named("a<->c").name == "a<->c"


def test_secure_path_requires_all_hops_secure():
    net = Network()
    for n in "abc":
        net.add_node(n)
    net.add_link("a", "b", latency_ms=1, secure=True)
    net.add_link("b", "c", latency_ms=1, secure=False)
    assert not net.path("a", "c").secure
    assert net.path("a", "b").secure


def test_path_transfer_time_sums_hops():
    net = triangle()
    p = net.path("a", "c")
    # Per hop: latency + bytes*8/bw; 10 kB: a-b 200+4ms, b-c 100+1.6ms
    assert p.transfer_time_ms(10_000) == pytest.approx(200 + 4 + 100 + 1.6)


def test_snapshot_is_independent():
    net = triangle()
    snap = net.snapshot()
    snap.node("a").reserved_cpu = 500
    snap.link("a", "b").reserved_mbps = 10
    assert net.node("a").reserved_cpu == 0
    assert net.link("a", "b").reserved_mbps == 0
    assert snap.node("a").free_cpu == 500


def test_free_capacity_accessors():
    node = NodeInfo("n", cpu_capacity=1000, reserved_cpu=300)
    assert node.free_cpu == 700
    link = LinkInfo("a", "b", bandwidth_mbps=20, reserved_mbps=5)
    assert link.free_mbps == 15


def test_materialize_mirrors_graph():
    from repro.sim import Simulator

    net = triangle()
    nodes, links = net.materialize(Simulator())
    assert set(nodes) == {"a", "b", "c"}
    assert len(links) == 3
    assert nodes["a"].cpu_capacity == 1000
    key = ("a", "b")
    assert links[key].latency_ms == 200
    assert links[key].secure is False


def test_len_and_n_links():
    net = triangle()
    assert len(net) == 3
    assert net.n_links == 3
