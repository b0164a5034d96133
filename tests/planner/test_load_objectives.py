"""Tests for the load model (condition 3) and the objectives."""

import pytest

from repro.experiments.topology_fig5 import build_fig5_network
from repro.planner import (
    ALGORITHMS,
    DeploymentPlan,
    DeploymentState,
    DeploymentCost,
    ExpectedLatency,
    MaxCapacity,
    Placement,
    PlannedLinkage,
    PlanRequest,
    check_loads,
    compute_loads,
    config_covered,
    plan_exhaustive,
    Planner,
)
from repro.services.mail import mail_translator
from repro.services.mail.spec import MAIL_SPEC_TEXT
from repro.spec import parse_service


def make_sd_plan(ctx):
    """Hand-build the Figure 6 San Diego plan for load analysis."""
    mc = ctx.instantiate(ctx.spec.unit("MailClient"), "sandiego-client1", {"User": "Bob"})
    vms = ctx.instantiate(ctx.spec.unit("ViewMailServer"), "sandiego-gw", {})
    enc = ctx.instantiate(ctx.spec.unit("Encryptor"), "sandiego-gw", {})
    dec = ctx.instantiate(ctx.spec.unit("Decryptor"), "newyork-gw", {})
    ms = ctx.instantiate(ctx.spec.unit("MailServer"), "newyork-ms", {})
    plan = DeploymentPlan(
        placements=[mc, vms, enc, dec, ms],
        linkages=[
            PlannedLinkage(0, 1, "ServerInterface"),
            PlannedLinkage(1, 2, "ServerInterface"),
            PlannedLinkage(2, 3, "DecryptorInterface"),
            PlannedLinkage(3, 4, "ServerInterface"),
        ],
        root=0,
        client_node="sandiego-client1",
    )
    return plan


def test_rrf_attenuates_downstream_rates(ctx):
    plan = make_sd_plan(ctx)
    report = compute_loads(ctx, plan, request_rate=10.0)
    assert report.inbound[0] == pytest.approx(10.0)  # MailClient
    assert report.inbound[1] == pytest.approx(10.0)  # VMS sees everything
    # VMS RRF 0.2: only 2 req/s continue upstream, through E, D, MS.
    assert report.inbound[2] == pytest.approx(2.0)
    assert report.inbound[3] == pytest.approx(2.0)
    assert report.inbound[4] == pytest.approx(2.0)


def test_link_load_counts_every_hop(ctx):
    plan = make_sd_plan(ctx)
    report = compute_loads(ctx, plan, request_rate=10.0)
    # The E->D linkage crosses the inter-site link.
    assert "newyork-gw<->sandiego-gw" in report.link_mbps
    mbps = report.link_mbps["newyork-gw<->sandiego-gw"]
    # 2 req/s * (4224+640) bytes * 8 / 1e6
    assert mbps == pytest.approx(2 * (4224 + 640) * 8 / 1e6)


def test_node_cpu_aggregates_colocated_components(ctx):
    plan = make_sd_plan(ctx)
    report = compute_loads(ctx, plan, request_rate=10.0)
    # sandiego-gw hosts VMS (10 req/s * 0.8) + Encryptor (2 * 2.0).
    assert report.node_cpu["sandiego-gw"] == pytest.approx(10 * 0.8 + 2 * 2.0)


def test_check_loads_flags_component_capacity(ctx):
    plan = make_sd_plan(ctx)
    # VMS capacity is 500 req/s.
    report = check_loads(ctx, plan, request_rate=600.0)
    assert any("over capacity" in v for v in report.violations)


def test_check_loads_flags_link_bandwidth(ctx):
    plan = make_sd_plan(ctx)
    # Find a rate where the 20 Mb/s inter-site link saturates first:
    # per req/s upstream traffic is 0.2*(4224+640)*8 bits.
    rate = 20e6 / (0.2 * (4224 + 640) * 8) * 1.1
    report = check_loads(ctx, plan, request_rate=rate)
    assert any("over bandwidth" in v for v in report.violations)


def test_check_loads_respects_reservations(ctx):
    plan = make_sd_plan(ctx)
    ctx.network.node("sandiego-gw").reserved_cpu = 995.0
    ctx.network.touch()
    report = check_loads(ctx, plan, request_rate=10.0)
    assert any("over CPU" in v for v in report.violations)


def test_config_covered_same_and_dominating(ctx):
    vms2 = ("ViewMailServer", (("TrustLevel", 2),))
    vms3 = ("ViewMailServer", (("TrustLevel", 3),))
    assert config_covered(ctx, frozenset([vms3]), vms3)
    # TrustLevel is AtLeast: the 3-view's content covers the 2-view's.
    assert config_covered(ctx, frozenset([vms3]), vms2)
    assert not config_covered(ctx, frozenset([vms2]), vms3)
    assert not config_covered(ctx, frozenset(), vms2)
    other = ("Encryptor", ())
    assert not config_covered(ctx, frozenset([vms3]), other)


def test_covered_replica_absorbs_nothing(ctx):
    """Two identical VMS configs in a chain: second applies no RRF."""
    mc = ctx.instantiate(ctx.spec.unit("MailClient"), "sandiego-client1", {"User": "Bob"})
    v1 = ctx.instantiate(ctx.spec.unit("ViewMailServer"), "sandiego-gw", {})
    v2 = ctx.instantiate(ctx.spec.unit("ViewMailServer"), "sandiego-client2", {})
    ms = ctx.instantiate(ctx.spec.unit("MailServer"), "newyork-ms", {})
    plan = DeploymentPlan(
        placements=[mc, v1, v2, ms],
        linkages=[
            PlannedLinkage(0, 1, "ServerInterface"),
            PlannedLinkage(1, 2, "ServerInterface"),
            PlannedLinkage(2, 3, "ServerInterface"),
        ],
        root=0,
        client_node="sandiego-client1",
    )
    report = compute_loads(ctx, plan, request_rate=10.0)
    assert report.inbound[2] == pytest.approx(2.0)  # after first VMS
    assert report.inbound[3] == pytest.approx(2.0)  # second VMS: no extra cut


def test_expected_latency_prefers_cache_before_slow_link(ctx, state_with_ms):
    request = PlanRequest("ClientInterface", "sandiego-client1", context={"User": "Bob"})
    plan = plan_exhaustive(ctx, request, state_with_ms, ExpectedLatency())
    assert "ViewMailServer" in [p.unit for p in plan.placements]
    # The paper's point: the RRF makes the cached deployment beat the
    # pure Encryptor/Decryptor chain.
    assert plan.metrics["expected_latency_ms"] < 100


def test_expected_latency_score_is_deterministic(ctx, state_with_ms):
    request = PlanRequest("ClientInterface", "sandiego-client1", context={"User": "Bob"})
    a = plan_exhaustive(ctx, request, state_with_ms, ExpectedLatency())
    b = plan_exhaustive(ctx, request, state_with_ms, ExpectedLatency())
    assert a.score == b.score
    assert [p.key for p in a.placements] == [p.key for p in b.placements]


def test_deployment_cost_counts_only_new_placements(ctx, state_with_ms):
    request = PlanRequest("ClientInterface", "newyork-client1", context={"User": "Alice"})
    obj = DeploymentCost(home_node="newyork-ms")
    plan = plan_exhaustive(ctx, request, state_with_ms, obj)
    assert plan is not None
    # Only the MailClient is new; its code ships within the NY site.
    assert plan.metrics["deployment_cost_ms"] < 50


def test_deployment_cost_is_infinite_across_a_partition(ctx, fig5):
    """A node cut off from the code base cannot be shipped to: that is an
    infinitely expensive placement, not a NetworkError out of the search."""
    obj = DeploymentCost(home_node="newyork-ms")
    unit = ctx.spec.unit("MailClient")
    assert obj.placement_cost(ctx, unit, "sandiego-client1", False) < float("inf")
    fig5.network.set_node_up("sandiego-gw", False)
    assert obj.placement_cost(ctx, unit, "sandiego-client1", False) == float("inf")
    assert obj.placement_cost(ctx, unit, "sandiego-client1", True) == 0.0  # reused


def test_max_capacity_objective_produces_valid_plan(ctx, state_with_ms):
    request = PlanRequest(
        "ClientInterface", "sandiego-client1", context={"User": "Bob"}, max_units=5
    )
    plan = plan_exhaustive(ctx, request, state_with_ms, MaxCapacity())
    assert plan is not None
    assert plan.metrics["capacity_req_s"] > 0


def test_root_view_penalty_prefers_full_client(ctx, state_with_ms):
    request = PlanRequest("ClientInterface", "newyork-client1", context={"User": "Alice"})
    plan = plan_exhaustive(ctx, request, state_with_ms, ExpectedLatency())
    # ViewMailClient is marginally cheaper on CPU but must lose to the
    # full-featured MailClient wherever the latter installs.
    assert plan.placements[plan.root].unit == "MailClient"


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_default_rate_is_the_chosen_roots(algorithm):
    """With no rate in the request, condition 3 is checked at the rate
    of the root the plan chose, which is what ``commit`` reserves, not
    at the highest rate any root of the interface declares.  Seattle's
    only installable root is the ViewMailClient (10 req/s); a
    MailClient declaring 100000 req/s must not make it unservable."""
    text = MAIL_SPEC_TEXT.replace(
        "RequestRate: 10\nCpuPerRequest: 0.5", "RequestRate: 100000\nCpuPerRequest: 0.5"
    )
    spec = parse_service(text)
    assert spec.unit("MailClient").behaviors.request_rate == 100000
    assert spec.unit("ViewMailClient").behaviors.request_rate == 10
    topo = build_fig5_network(clients_per_site=2)
    planner = Planner(spec, topo.network, mail_translator(), algorithm=algorithm)
    planner.preinstall("MailServer", topo.server_node)
    request = PlanRequest("ClientInterface", "seattle-client1", context={"User": "Carol"})
    plan, report = planner.plan_and_commit(request)
    assert plan.placements[plan.root].unit == "ViewMailClient"
    assert report.inbound[plan.root] == 10
