"""Planning for non-chain component graphs (fan-out).

"More generally, however, applications need to be represented as a
directed component graph.  To support such applications, we are
developing a partial-order based constraint solver" (§3.3).  The
exhaustive planner must handle a component that requires *two*
interfaces; the chain DP correctly abstains.
"""

import pytest

from repro.network import FunctionTranslator, Network
from repro.planner import (
    DeploymentState,
    ExpectedLatency,
    PlanningContext,
    PlanRequest,
    check_loads,
    enumerate_linkage_graphs,
    plan_dp_chain,
    plan_exhaustive,
)
from repro.spec import (
    Behaviors,
    BooleanDomain,
    ComponentDef,
    Condition,
    InterfaceBinding,
    InterfaceDef,
    PropertyDef,
    ServiceSpec,
)

from .conftest import _Unpruned

#: every planner that accepts general component graphs (dp_chain abstains)
FANOUT_PLANNERS = [plan_exhaustive]


def analytics_spec() -> ServiceSpec:
    """Frontend fans out to a storage tier AND an index tier."""
    spec = ServiceSpec("analytics")
    spec.add_property(PropertyDef("HasDisk", BooleanDomain()))
    spec.add_property(PropertyDef("HasMemory", BooleanDomain()))
    spec.add_interface(InterfaceDef("FrontInterface"))
    spec.add_interface(InterfaceDef("StorageInterface"))
    spec.add_interface(InterfaceDef("IndexInterface"))
    spec.add_component(
        ComponentDef(
            "Frontend",
            implements=(InterfaceBinding("FrontInterface"),),
            requires=(
                InterfaceBinding("StorageInterface"),
                InterfaceBinding("IndexInterface"),
            ),
            behaviors=Behaviors(request_rate=20.0, cpu_per_request=0.5, rrf=1.0),
        )
    )
    spec.add_component(
        ComponentDef(
            "StorageNode",
            implements=(InterfaceBinding("StorageInterface"),),
            conditions=(Condition("HasDisk", True),),
            behaviors=Behaviors(capacity=100.0, cpu_per_request=2.0),
        )
    )
    spec.add_component(
        ComponentDef(
            "IndexNode",
            implements=(InterfaceBinding("IndexInterface"),),
            conditions=(Condition("HasMemory", True),),
            behaviors=Behaviors(capacity=200.0, cpu_per_request=1.0),
        )
    )
    return spec.validate()


def analytics_world():
    net = Network()
    net.add_node("client", credentials={})
    net.add_node("diskbox", credentials={"disk": True})
    net.add_node("membox", credentials={"memory": True})
    net.add_node("bigbox", credentials={"disk": True, "memory": True})
    net.add_link("client", "diskbox", latency_ms=5.0)
    net.add_link("client", "membox", latency_ms=5.0)
    net.add_link("client", "bigbox", latency_ms=50.0)
    net.add_link("diskbox", "membox", latency_ms=1.0)

    translator = FunctionTranslator(
        node_fn=lambda n: {
            "HasDisk": bool(n.credentials.get("disk", False)),
            "HasMemory": bool(n.credentials.get("memory", False)),
        },
    )
    spec = analytics_spec()
    return spec, net, PlanningContext(spec, net, translator)


def test_linkage_graph_is_a_tree_not_a_chain():
    spec = analytics_spec()
    graphs = enumerate_linkage_graphs(spec, "FrontInterface")
    assert len(graphs) == 1
    g = graphs[0]
    assert not g.is_chain
    assert len(g.units) == 3
    assert len(g.edges) == 2
    with pytest.raises(ValueError):
        g.chain_units()


@pytest.mark.parametrize("plan_fn", FANOUT_PLANNERS)
def test_fanout_planned_with_conditions_respected(plan_fn):
    spec, net, ctx = analytics_world()
    request = PlanRequest("FrontInterface", "client")
    plan = plan_fn(ctx, request, DeploymentState(), ExpectedLatency())
    assert plan is not None
    by_unit = {p.unit: p for p in plan.placements}
    assert set(by_unit) == {"Frontend", "StorageNode", "IndexNode"}
    assert by_unit["Frontend"].node == "client"
    # Conditions steer the tiers onto capable nodes; nearby beats bigbox.
    assert by_unit["StorageNode"].node == "diskbox"
    assert by_unit["IndexNode"].node == "membox"
    # The root has two outgoing linkages (fan-out, not a chain).
    assert len(plan.servers_of(plan.root)) == 2
    assert check_loads(ctx, plan, 20.0).ok


def test_dp_chain_abstains_on_fanout():
    spec, net, ctx = analytics_world()
    request = PlanRequest("FrontInterface", "client")
    assert plan_dp_chain(ctx, request, DeploymentState(), ExpectedLatency()) is None


@pytest.mark.parametrize("plan_fn", FANOUT_PLANNERS)
def test_fanout_reuses_installed_tiers(plan_fn):
    spec, net, ctx = analytics_world()
    state = DeploymentState()
    first = plan_fn(ctx, PlanRequest("FrontInterface", "client"), state, ExpectedLatency())
    state.absorb(first)
    second = plan_fn(ctx, PlanRequest("FrontInterface", "client"), state, ExpectedLatency())
    assert second is not None
    # Everything reusable is reused: no new placements at all.
    assert not second.new_placements()


@pytest.mark.parametrize("plan_fn", FANOUT_PLANNERS)
def test_fanout_infeasible_when_a_tier_has_no_home(plan_fn):
    spec, net, ctx = analytics_world()
    # Remove every disk: StorageNode has nowhere to live.
    for node in net.nodes():
        node.credentials.pop("disk", None)
    net.touch()
    plan = plan_fn(ctx, PlanRequest("FrontInterface", "client"), DeploymentState(), ExpectedLatency())
    assert plan is None


def test_fanout_load_model_splits_rates():
    from repro.planner import compute_loads

    spec, net, ctx = analytics_world()
    plan = plan_exhaustive(ctx, PlanRequest("FrontInterface", "client"), DeploymentState(), ExpectedLatency())
    report = compute_loads(ctx, plan, 20.0)
    by_unit = {plan.placements[i].unit: r for i, r in report.inbound.items()}
    # Frontend RRF 1.0: each required linkage carries the full rate.
    assert by_unit["Frontend"] == pytest.approx(20.0)
    assert by_unit["StorageNode"] == pytest.approx(20.0)
    assert by_unit["IndexNode"] == pytest.approx(20.0)


def test_exhaustive_matches_unpruned_search_on_fanout_score():
    spec, net, ctx = analytics_world()
    request = PlanRequest("FrontInterface", "client")
    pruned = plan_exhaustive(ctx, request, DeploymentState(), ExpectedLatency())
    complete = plan_exhaustive(ctx, request, DeploymentState(), _Unpruned())
    assert pruned.score[0] == pytest.approx(complete.score[0], rel=1e-9)
