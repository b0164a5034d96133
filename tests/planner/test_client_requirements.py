"""Client QoS requirements on the requested interface (PlanRequest
``required_properties``)."""

import pytest

from repro.planner import (
    DeploymentState,
    ExpectedLatency,
    PlanRequest,
    plan_dp_chain,
    plan_exhaustive,
)

ALGOS = [plan_exhaustive, plan_dp_chain]


@pytest.mark.parametrize("plan_fn", ALGOS)
def test_trust_requirement_excludes_view_client(plan_fn, ctx, state_with_ms):
    """A client demanding TrustLevel >= 4 on ClientInterface cannot be
    served by the ViewMailClient (which implements TrustLevel=1)."""
    # Mallory is outside the MailClient ACL; normally she'd fall back to
    # the ViewMailClient.  With the requirement, nothing satisfies her.
    request = PlanRequest(
        "ClientInterface",
        "newyork-client1",
        context={"User": "Mallory"},
        required_properties={"TrustLevel": 4},
    )
    assert plan_fn(ctx, request, state_with_ms, ExpectedLatency()) is None


@pytest.mark.parametrize("plan_fn", ALGOS)
def test_trust_requirement_satisfied_by_full_client(plan_fn, ctx, state_with_ms):
    request = PlanRequest(
        "ClientInterface",
        "newyork-client1",
        context={"User": "Alice"},
        required_properties={"TrustLevel": 4},
    )
    plan = plan_fn(ctx, request, state_with_ms, ExpectedLatency())
    assert plan is not None
    assert plan.placements[plan.root].unit == "MailClient"  # implements TL=4


@pytest.mark.parametrize("plan_fn", ALGOS)
def test_unsatisfiable_requirement_yields_none(plan_fn, ctx, state_with_ms):
    request = PlanRequest(
        "ClientInterface",
        "newyork-client1",
        context={"User": "Alice"},
        required_properties={"TrustLevel": 5},  # no client implements 5
    )
    assert plan_fn(ctx, request, state_with_ms, ExpectedLatency()) is None


def test_requirement_checked_against_reused_roots(ctx, state_with_ms):
    # First, install a MailClient for Alice at the node.
    base = PlanRequest("ClientInterface", "newyork-client1", context={"User": "Alice"})
    first = plan_exhaustive(ctx, base, state_with_ms, ExpectedLatency())
    state_with_ms.absorb(first)
    # A follow-up request with a satisfiable requirement reuses it...
    ok = PlanRequest(
        "ClientInterface", "newyork-client1",
        context={"User": "Alice"}, required_properties={"TrustLevel": 3},
    )
    plan = plan_exhaustive(ctx, ok, state_with_ms, ExpectedLatency())
    assert plan is not None and all(p.reused for p in plan.placements)
    # ...and an unsatisfiable one still fails.
    bad = PlanRequest(
        "ClientInterface", "newyork-client1",
        context={"User": "Alice"}, required_properties={"TrustLevel": 5},
    )
    assert plan_exhaustive(ctx, bad, state_with_ms, ExpectedLatency()) is None
