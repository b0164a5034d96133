"""Tests for the ASCII renderers."""

import pytest

from repro.experiments import build_fig5_network, run_fig6
from repro.viz import render_deployment


@pytest.fixture(scope="module")
def world():
    deployments = run_fig6(algorithm="dp_chain")
    topo = build_fig5_network(clients_per_site=2)
    return topo, deployments


def test_render_deployment_overlays_components(world):
    topo, deployments = world
    out = render_deployment(topo.network, [d.plan for d in deployments.values()])
    assert "MC" in out and "VMS[3]" in out and "VMS[2]" in out
    assert "MS*" in out  # the reused primary
    assert "legend:" in out


def test_render_deployment_full_names(world):
    topo, deployments = world
    out = render_deployment(
        topo.network, [deployments["newyork"].plan], abbrev=False
    )
    assert "MailClient" in out
    assert "legend" not in out

