"""Tests for the planning algorithms on the Figure 6 scenarios.

The invariant every planner must satisfy: any returned plan passes all
three validity conditions and stays within ``request.max_units``
(checked via ``validate_plan_conditions``), and on the case-study
inputs the *structure* must match Figure 6.
"""

import pytest

from repro.network import BriteConfig, generate_waxman
from repro.planner import (
    ALGORITHMS,
    DeploymentState,
    ExpectedLatency,
    PlanningContext,
    PlanRequest,
    check_loads,
    plan_dp_chain,
    plan_exhaustive,
)
from repro.services.mail import mail_translator

def validate_plan_conditions(ctx, plan, request, rate=10.0):
    """Assert the three §3.3 validity conditions hold for a plan, and
    that it places no more units than the request allows."""
    assert len(plan.placements) <= request.max_units
    # Condition 1: installability of every fresh placement.
    for p in plan.placements:
        if p.reused:
            continue
        unit = ctx.spec.unit(p.unit)
        assert ctx.installable(unit, p.node, request.context), (
            f"{p.label()} violates installation conditions"
        )
    # Condition 2: property compatibility along every linkage.
    for link in plan.linkages:
        client = plan.placements[link.client]
        server = plan.placements[link.server]
        required = dict(
            ctx.resolved_requires(ctx.spec.unit(client.unit), client.node)
        ).get(link.interface)
        assert required is not None
        impl = server.implemented_props(link.interface)
        assert impl is not None
        link = ctx.link_env(client.node, server.node)
        assert link is not None, (
            f"linkage {client.label()} -> {server.label()} crosses a partition"
        )
        assert ctx.properties_compatible(required, impl, link[0]), (
            f"linkage {client.label()} -> {server.label()} incompatible"
        )
    # Condition 3: loads within capacity.
    report = check_loads(ctx, plan, rate)
    assert report.ok, report.violations


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_newyork_client_direct_connection(algo, ctx, state_with_ms):
    request = PlanRequest("ClientInterface", "newyork-client1", context={"User": "Alice"})
    plan = ALGORITHMS[algo](ctx, request, state_with_ms, ExpectedLatency())
    assert plan is not None
    chain = [p.unit for p in plan.chain_from_root()]
    assert chain == ["MailClient", "MailServer"]
    validate_plan_conditions(ctx, plan, request)


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_sandiego_client_gets_cache_and_crypto_chain(algo, ctx, state_with_ms):
    request = PlanRequest("ClientInterface", "sandiego-client1", context={"User": "Bob"})
    plan = ALGORITHMS[algo](ctx, request, state_with_ms, ExpectedLatency())
    assert plan is not None
    chain = [p.unit for p in plan.chain_from_root()]
    assert chain == [
        "MailClient", "ViewMailServer", "Encryptor", "Decryptor", "MailServer",
    ]
    by_unit = {p.unit: p for p in plan.placements}
    assert by_unit["ViewMailServer"].node.startswith("sandiego")
    assert dict(by_unit["ViewMailServer"].factor_values) == {"TrustLevel": 3}
    assert by_unit["Encryptor"].node.startswith("sandiego")
    assert by_unit["Decryptor"].node.startswith("newyork")
    assert by_unit["MailServer"].reused
    validate_plan_conditions(ctx, plan, request)


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_seattle_client_degrades_to_view_client(algo, ctx, state_with_ms):
    # Deploy San Diego first so Seattle can reuse its cache (the paper's
    # timeline).
    sd = PlanRequest("ClientInterface", "sandiego-client1", context={"User": "Bob"})
    sd_plan = ALGORITHMS[algo](ctx, sd, state_with_ms, ExpectedLatency())
    state_with_ms.absorb(sd_plan)

    request = PlanRequest("ClientInterface", "seattle-client1", context={"User": "Carol"})
    plan = ALGORITHMS[algo](ctx, request, state_with_ms, ExpectedLatency())
    assert plan is not None
    chain = [p.unit for p in plan.chain_from_root()]
    assert chain[0] == "ViewMailClient"  # full client not installable at trust 2
    assert chain[1] == "ViewMailServer"
    by_idx = plan.chain_from_root()
    assert dict(by_idx[1].factor_values) == {"TrustLevel": 2}
    # The chain terminates at San Diego's reused ViewMailServer[3].
    last = by_idx[-1]
    assert last.unit == "ViewMailServer"
    assert dict(last.factor_values) == {"TrustLevel": 3}
    assert last.reused
    validate_plan_conditions(ctx, plan, request)


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_unservable_request_returns_none(algo, ctx, state_with_ms):
    # A user outside the ACL cannot get any client component installed.
    request = PlanRequest("ClientInterface", "newyork-client1", context={"User": "Mallory"})
    plan = ALGORITHMS[algo](ctx, request, state_with_ms, ExpectedLatency())
    # ViewMailClient has no ACL, so Mallory still gets the object view.
    assert plan is not None
    assert plan.placements[plan.root].unit == "ViewMailClient"


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_no_plan_when_nothing_implements_interface(algo, ctx, state_with_ms):
    request = PlanRequest("DecryptorInterface", "seattle-client1", max_units=2)
    plan = ALGORITHMS[algo](ctx, request, state_with_ms, ExpectedLatency())
    # Decryptor requires ServerInterface with Confidentiality=T; from
    # Seattle only a local chain works — with max_units=2 a Decryptor +
    # reused trusted upstream is unreachable across insecure links.
    if plan is not None:
        validate_plan_conditions(ctx, plan, request)


def test_dp_matches_exhaustive_structure(ctx, state_with_ms):
    request = PlanRequest("ClientInterface", "sandiego-client1", context={"User": "Bob"})
    ex = plan_exhaustive(ctx, request, state_with_ms, ExpectedLatency())
    dp = plan_dp_chain(ctx, request, state_with_ms, ExpectedLatency())
    assert [p.unit for p in ex.chain_from_root()] == [p.unit for p in dp.chain_from_root()]


def test_reused_root_for_second_client_on_same_node(ctx, state_with_ms):
    request = PlanRequest("ClientInterface", "newyork-client1", context={"User": "Alice"})
    first = plan_exhaustive(ctx, request, state_with_ms, ExpectedLatency())
    state_with_ms.absorb(first)
    second = plan_exhaustive(ctx, request, state_with_ms, ExpectedLatency())
    assert all(p.reused for p in second.placements)
    assert not second.new_placements()


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_no_plan_exceeds_max_units_on_a_waxman_world(algorithm, mail_spec):
    """The planner-scaling world at n=16 (Waxman, seed 42): linking the
    installed MailServer below five fresh units gives a cheaper six-unit
    plan (two ViewMailServers), which ``max_units=5`` forbids."""
    net = generate_waxman(
        BriteConfig(
            n_nodes=16,
            seed=42,
            insecure_fraction=0.4,
            trust_level_range=(1, 4),
            bandwidth_range_mbps=(8.0, 100.0),
        )
    )
    server_node, client_node = net.node_names()[0], net.node_names()[-1]
    net.node(server_node).credentials["trust_level"] = 5
    net.node(client_node).credentials["trust_level"] = 4
    ctx = PlanningContext(mail_spec, net, mail_translator())
    state = DeploymentState()
    state.add(ctx.instantiate(mail_spec.unit("MailServer"), server_node, {}))
    request = PlanRequest(
        "ClientInterface", client_node, context={"User": "Alice"}, max_units=5
    )
    plan = ALGORITHMS[algorithm](ctx, request, state, ExpectedLatency())
    assert plan is not None
    validate_plan_conditions(ctx, plan, request)
