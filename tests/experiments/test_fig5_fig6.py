"""Tests reproducing Figures 5 and 6."""

import pytest

from repro.experiments import (
    EXPECTED_CHAINS,
    SITE_TRUST,
    build_fig5_network,
    run_fig6,
)


class TestFig5Topology:
    def test_sites_and_counts(self):
        topo = build_fig5_network(clients_per_site=2)
        # 3 gateways + 6 clients + the mail-server host
        assert len(topo.network) == 10
        assert topo.server_node == "newyork-ms"
        assert set(topo.gateways) == {"newyork", "sandiego", "seattle"}

    def test_inter_site_links_match_figure(self):
        topo = build_fig5_network()
        net = topo.network
        ny_sd = net.link("newyork-gw", "sandiego-gw")
        assert (ny_sd.latency_ms, ny_sd.bandwidth_mbps, ny_sd.secure) == (200.0, 20.0, False)
        ny_sea = net.link("newyork-gw", "seattle-gw")
        assert (ny_sea.latency_ms, ny_sea.bandwidth_mbps, ny_sea.secure) == (400.0, 8.0, False)
        sd_sea = net.link("sandiego-gw", "seattle-gw")
        assert (sd_sea.latency_ms, sd_sea.bandwidth_mbps, sd_sea.secure) == (100.0, 50.0, False)

    def test_intra_site_links_fast_and_secure(self):
        topo = build_fig5_network()
        link = topo.network.link("newyork-gw", "newyork-client1")
        assert link.secure and link.bandwidth_mbps == 100.0 and link.latency_ms == 0.0

    def test_site_trust_levels(self):
        topo = build_fig5_network()
        for site, trust in SITE_TRUST.items():
            for node in topo.clients[site]:
                assert topo.network.node(node).credentials["trust_level"] == trust
        # "the partner organization nodes (Seattle) are trusted less"
        assert SITE_TRUST["seattle"] < SITE_TRUST["sandiego"] <= SITE_TRUST["newyork"]

    def test_site_of(self):
        topo = build_fig5_network()
        assert topo.site_of("sandiego-client1") == "sandiego"
        with pytest.raises(KeyError):
            topo.site_of("mars-base")

    def test_validation(self):
        with pytest.raises(ValueError):
            build_fig5_network(clients_per_site=0)


class TestFig6Deployments:
    @pytest.fixture(scope="class")
    def deployments(self):
        return run_fig6(algorithm="exhaustive")

    def test_all_three_sites_match_the_paper(self, deployments):
        for site, result in deployments.items():
            assert result.matches_paper, (
                f"{site}: got {result.chain}, expected {result.expected}"
            )

    def test_newyork_direct(self, deployments):
        assert deployments["newyork"].chain == EXPECTED_CHAINS["newyork"]

    def test_sandiego_cache_trust_level(self, deployments):
        plan = deployments["sandiego"].plan
        vms = [p for p in plan.placements if p.unit == "ViewMailServer"]
        assert dict(vms[0].factor_values) == {"TrustLevel": 3}

    def test_seattle_reuses_sandiego_cache(self, deployments):
        plan = deployments["seattle"].plan
        reused = [p for p in plan.placements if p.reused]
        assert any(
            p.unit == "ViewMailServer" and p.node.startswith("sandiego") for p in reused
        )

    def test_seattle_cache_has_lower_trust(self, deployments):
        plan = deployments["seattle"].plan
        local_vms = [
            p for p in plan.placements
            if p.unit == "ViewMailServer" and p.node.startswith("seattle")
        ]
        assert dict(local_vms[0].factor_values) == {"TrustLevel": 2}

    def test_dp_chain_agrees_on_structure(self):
        dp = run_fig6(algorithm="dp_chain")
        for site, result in dp.items():
            units = [u for u, _site in result.chain]
            expected_units = [u for u, _site in EXPECTED_CHAINS[site]]
            assert units == expected_units
            sites = [s for _u, s in result.chain]
            expected_sites = [s for _u, s in EXPECTED_CHAINS[site]]
            assert sites == expected_sites
