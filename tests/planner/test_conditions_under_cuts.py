"""The three validity conditions hold for every planner when links are down.

Hypothesis cuts a drawn set of Figure 5 links after a San Diego
deployment is installed, then asks each algorithm for a drawn client and
user.  Every plan returned must pass ``validate_plan_conditions`` (an
independent re-derivation of the three conditions, not the planners'
own helpers), and no linkage may join two nodes the cuts partition.
Under the same cuts, ``surviving_placements`` must keep exactly the
previous placements whose own install conditions and downstream
linkages still pass.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.topology_fig5 import build_fig5_network
from repro.planner import (
    ALGORITHMS,
    DeploymentState,
    ExpectedLatency,
    PlanningContext,
    PlanRequest,
    plan_dp_chain,
    surviving_placements,
)
from repro.services.mail import DEFAULT_USERS, build_mail_spec, mail_translator

from .test_planners import validate_plan_conditions

SPEC = build_mail_spec()
LINKS = sorted(
    (link.a, link.b) for link in build_fig5_network(clients_per_site=2).network.links()
)
CLIENTS = [f"{site}-client{i}" for site in ("newyork", "sandiego", "seattle") for i in (1, 2)]
BOB = {"User": "Bob"}


def _linkage_passes(ctx, previous, idx, iface, srv_idx, kept):
    """Condition 2 of one previous linkage, re-derived from the context's
    primitives, with its server among the placements ``kept``."""
    client = previous.placements[idx]
    server = previous.placements[srv_idx]
    link = ctx.link_env(client.node, server.node)
    if server not in kept or link is None:
        return False
    required = dict(ctx.resolved_requires(SPEC.unit(client.unit), client.node))[iface]
    return ctx.properties_compatible(required, server.implemented_props(iface), link[0])


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    cuts=st.sets(st.sampled_from(LINKS), max_size=4),
    client=st.sampled_from(CLIENTS),
    user=st.sampled_from(DEFAULT_USERS + ("Mallory",)),
)
def test_plans_and_survivors_hold_the_conditions_under_cuts(cuts, client, user):
    topo = build_fig5_network(clients_per_site=2)
    ctx = PlanningContext(SPEC, topo.network, mail_translator())
    state = DeploymentState()
    state.add(ctx.instantiate(SPEC.unit("MailServer"), topo.server_node))
    previous = plan_dp_chain(
        ctx, PlanRequest("ClientInterface", "sandiego-client1", context=BOB), state
    )
    state.absorb(previous)
    for a, b in cuts:
        topo.network.set_link_up(a, b, False)

    request = PlanRequest("ClientInterface", client, context={"User": user})
    for name, algorithm in sorted(ALGORITHMS.items()):
        plan = algorithm(ctx, request, state, ExpectedLatency())
        if plan is None:
            continue
        for link in plan.linkages:
            a = plan.placements[link.client].node
            b = plan.placements[link.server].node
            assert ctx.link_env(a, b) is not None, f"{name}: {a} -> {b} is cut"
        validate_plan_conditions(ctx, plan, request)

    kept = set(surviving_placements(ctx, previous, BOB))
    # Bottom-up, as survival is defined: a placement survives iff it is
    # installable and every downstream linkage passes to a survivor.
    expected = set()
    for idx in reversed(range(len(previous.placements))):
        placement = previous.placements[idx]
        if ctx.installable(SPEC.unit(placement.unit), placement.node, BOB) and all(
            _linkage_passes(ctx, previous, idx, iface, srv, expected)
            for iface, srv in previous.servers_of(idx)
        ):
            expected.add(placement)
    assert kept == expected
