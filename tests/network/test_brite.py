"""Tests for the BRITE-style Waxman topology generator."""

import pytest

from repro.network import BriteConfig, generate_waxman


def test_generated_topologies_are_connected():
    net = generate_waxman(BriteConfig(n_nodes=40, m_edges=2, seed=7))
    names = net.node_names()
    assert len(net) == 40
    for name in names[1:]:
        net.path(names[0], name)  # raises NetworkError when disconnected


def test_generation_is_deterministic():
    a = generate_waxman(BriteConfig(n_nodes=25, seed=3))
    b = generate_waxman(BriteConfig(n_nodes=25, seed=3))
    assert sorted(l.name for l in a.links()) == sorted(l.name for l in b.links())
    assert [round(l.latency_ms, 6) for l in a.links()] == [
        round(l.latency_ms, 6) for l in b.links()
    ]


def test_different_seeds_differ():
    a = generate_waxman(BriteConfig(n_nodes=25, seed=1))
    b = generate_waxman(BriteConfig(n_nodes=25, seed=2))
    assert sorted(l.name for l in a.links()) != sorted(l.name for l in b.links())


def test_node_attributes_within_config_ranges():
    cfg = BriteConfig(
        n_nodes=30,
        seed=11,
        cpu_capacity_range=(100.0, 200.0),
        trust_level_range=(2, 4),
        bandwidth_range_mbps=(5.0, 10.0),
    )
    net = generate_waxman(cfg)
    for node in net.nodes():
        assert 100.0 <= node.cpu_capacity <= 200.0
        assert 2 <= node.credentials["trust_level"] <= 4
    for link in net.links():
        assert 5.0 <= link.bandwidth_mbps <= 10.0
        assert link.latency_ms > 0


def test_insecure_fraction_extremes():
    all_secure = generate_waxman(BriteConfig(n_nodes=20, seed=5, insecure_fraction=0.0))
    assert all(l.secure for l in all_secure.links())
    all_insecure = generate_waxman(
        BriteConfig(n_nodes=20, seed=5, insecure_fraction=1.0)
    )
    assert all(not l.secure for l in all_insecure.links())


def test_edge_count_scales_with_m():
    net = generate_waxman(BriteConfig(n_nodes=30, m_edges=3, seed=9))
    # incremental growth: roughly m edges per joining node
    assert net.n_links >= 3 * 25


def test_config_validation():
    with pytest.raises(ValueError):
        BriteConfig(n_nodes=1)
    with pytest.raises(ValueError):
        BriteConfig(n_nodes=10, m_edges=10)
    with pytest.raises(ValueError):
        BriteConfig(n_nodes=10, insecure_fraction=1.5)
