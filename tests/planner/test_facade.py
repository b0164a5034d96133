"""Tests for the Planner facade: commit/reservations, multi-interface."""

import math

import pytest

from repro.experiments.topology_fig5 import build_fig5_network
from repro.planner import Planner, PlanningError, PlanRequest
from repro.services.mail import build_mail_spec, mail_translator
from repro.spec import SpecError


@pytest.fixture()
def planner():
    topo = build_fig5_network(clients_per_site=2)
    p = Planner(build_mail_spec(), topo.network, mail_translator(), algorithm="dp_chain")
    p.preinstall("MailServer", topo.server_node)
    return p


def test_unknown_algorithm_rejected():
    topo = build_fig5_network(clients_per_site=2)
    with pytest.raises(ValueError, match="unknown algorithm"):
        Planner(build_mail_spec(), topo.network, mail_translator(), algorithm="magic")


def test_preinstall_requires_conditions():
    topo = build_fig5_network(clients_per_site=2)
    p = Planner(build_mail_spec(), topo.network, mail_translator())
    with pytest.raises(PlanningError):
        p.preinstall("MailServer", "seattle-gw")  # trust 2 != 5


def test_plan_raises_when_unsatisfiable(planner):
    # DecryptorInterface from a leaf with max_units=1: the Decryptor
    # itself can install, but its required ServerInterface cannot bind.
    with pytest.raises(PlanningError):
        planner.plan(
            PlanRequest("DecryptorInterface", "seattle-client1", max_units=1)
        )


def test_commit_reserves_capacity(planner):
    request = PlanRequest(
        "ClientInterface", "sandiego-client1",
        context={"User": "Bob"}, request_rate=10.0,
    )
    plan, report = planner.plan_and_commit(request)
    assert report.inbound
    # Node CPU and the inter-site link were reserved.
    reserved_nodes = [
        n for n in planner.network.nodes() if n.reserved_cpu > 0
    ]
    assert reserved_nodes
    inter = planner.network.link("newyork-gw", "sandiego-gw")
    assert inter.reserved_mbps > 0


def test_repeated_commits_exhaust_capacity(planner):
    # Drive request_rate until condition 3 rejects: the VMS capacity
    # (500 req/s) or link bandwidth must eventually run out.
    request = PlanRequest(
        "ClientInterface", "sandiego-client1",
        context={"User": "Bob"}, request_rate=400.0,
    )
    planner.plan_and_commit(request)
    with pytest.raises(PlanningError):
        for _ in range(50):  # each adds 400 req/s of reserved load
            planner.plan_and_commit(
                PlanRequest(
                    "ClientInterface", "sandiego-client2",
                    context={"User": "Carol"}, request_rate=400.0,
                )
            )


def test_a_nan_request_rate_is_rejected():
    # ``rate < 0`` lets NaN through, and a NaN rate passes condition 3.
    with pytest.raises(SpecError, match="NaN"):
        PlanRequest("ClientInterface", "sandiego-client1", request_rate=math.nan)


def test_commit_rejects_a_nan_rate(planner):
    plan = planner.plan(
        PlanRequest("ClientInterface", "sandiego-client1", context={"User": "Bob"})
    )
    with pytest.raises(ValueError, match="NaN"):
        planner.commit(plan, math.nan)
    # Nothing was reserved or installed: a NaN ``free_cpu`` would pass
    # every later condition-3 check on these nodes.
    for node in ("sandiego-gw", "sandiego-client1", "newyork-ms"):
        assert planner.network.node(node).reserved_cpu == 0.0
    assert len(planner.state) == 1


def test_plan_interfaces_shares_components(planner):
    """A client attaching to several interfaces plans each in turn
    against the shared deployment state, reusing what earlier plans
    installed."""
    planner.plan_and_commit(
        PlanRequest("ClientInterface", "sandiego-client1", context={"User": "Bob"})
    )
    # The direct ServerInterface attachment reuses the cache the first
    # plan deployed.
    second, _report = planner.plan_and_commit(
        PlanRequest("ServerInterface", "sandiego-client1", context={"User": "Bob"})
    )
    assert any(p.reused and p.unit == "ViewMailServer" for p in second.placements)


def test_plan_interfaces_propagates_failure(planner):
    with pytest.raises(PlanningError):
        planner.plan_and_commit(
            PlanRequest(
                "NoSuchInterface", "newyork-client1", context={"User": "Alice"}
            )
        )
