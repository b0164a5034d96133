"""Ablation A: planning-algorithm scaling with topology size.

The paper notes its planner "exhaustively searches" and cites the CANS
dynamic program [13] as the efficient alternative for chain graphs, plus
an IPP-style partial-order solver as future work.  This benchmark puts
numbers on that trade-off: wall time per algorithm over growing
BRITE-generated topologies, with all three returning constraint-valid
plans.
"""

import pytest

from repro.network import BriteConfig, generate_waxman
from repro.planner import (
    DeploymentState,
    ExpectedLatency,
    PlanningContext,
    PlanRequest,
    check_loads,
    plan_dp_chain,
    plan_exhaustive,
    plan_partial_order,
)
from repro.services.mail import build_mail_spec, mail_translator

ALGOS = {
    "exhaustive": plan_exhaustive,
    "dp_chain": plan_dp_chain,
    "partial_order": plan_partial_order,
}

#: exhaustive search explodes past ~12 nodes; bound it honestly
SIZE_LIMITS = {"exhaustive": 12, "dp_chain": 40, "partial_order": 16}

SIZES = (8, 12, 16, 24, 40)


def build_world(n_nodes: int):
    spec = build_mail_spec()
    net = generate_waxman(
        BriteConfig(
            n_nodes=n_nodes,
            seed=42,
            insecure_fraction=0.4,
            trust_level_range=(1, 4),
            bandwidth_range_mbps=(8.0, 100.0),
        )
    )
    # Pin a trust-5 home for the primary server and a client node.
    server_node = net.node_names()[0]
    net.node(server_node).credentials["trust_level"] = 5
    client_node = net.node_names()[-1]
    net.node(client_node).credentials["trust_level"] = 4
    ctx = PlanningContext(spec, net, mail_translator())
    state = DeploymentState()
    placement = ctx.instantiate(spec.unit("MailServer"), server_node, {})
    assert placement is not None
    state.add(placement)
    request = PlanRequest(
        "ClientInterface", client_node, context={"User": "Alice"}, max_units=5
    )
    return ctx, state, request


@pytest.mark.parametrize("n_nodes", SIZES)
@pytest.mark.parametrize("algorithm", sorted(ALGOS))
def test_planner_scaling(benchmark, algorithm, n_nodes, report_lines):
    if n_nodes > SIZE_LIMITS[algorithm]:
        pytest.skip(f"{algorithm} intractable beyond {SIZE_LIMITS[algorithm]} nodes")
    ctx, state, request = build_world(n_nodes)
    plan = benchmark.pedantic(
        lambda: ALGOS[algorithm](ctx, request, state, ExpectedLatency()),
        rounds=1,
        iterations=1,
    )
    assert plan is not None, f"{algorithm} found no plan at n={n_nodes}"
    assert check_loads(ctx, plan, 10.0).ok
    benchmark.extra_info["algorithm"] = algorithm
    benchmark.extra_info["n_nodes"] = n_nodes
    benchmark.extra_info["chain"] = [p.unit for p in plan.chain_from_root()]
    report_lines.append(
        f"Ablation A [{algorithm:13s} n={n_nodes:3d}]: "
        + " -> ".join(p.unit for p in plan.chain_from_root())
    )
