"""Ablation A: planning-algorithm scaling with topology size.

The paper notes its planner "exhaustively searches" and cites the CANS
dynamic program [13] as the efficient alternative for chain graphs.
This benchmark puts numbers on that trade-off: wall time per algorithm
over growing BRITE-generated topologies, every algorithm on every size,
each returning a constraint-valid plan within ``max_units``.  Each
line prints the plan's score, so a fast path that loses the optimum
shows beside the exact planner.
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
)
from repro.services.mail import build_mail_spec, mail_translator

SIZES = (8, 12, 16, 24, 40, 80, 160)


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
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_planner_scaling(benchmark, algorithm, n_nodes, report_lines):
    ctx, state, request = build_world(n_nodes)
    plan = benchmark.pedantic(
        lambda: ALGORITHMS[algorithm](ctx, request, state, ExpectedLatency()),
        rounds=1,
        iterations=1,
    )
    assert plan is not None, f"{algorithm} found no plan at n={n_nodes}"
    assert len(plan.placements) <= request.max_units
    assert check_loads(ctx, plan, 10.0).ok
    benchmark.extra_info["algorithm"] = algorithm
    benchmark.extra_info["n_nodes"] = n_nodes
    benchmark.extra_info["chain"] = [p.unit for p in plan.chain_from_root()]
    benchmark.extra_info["score_ms"] = plan.score[0]
    report_lines.append(
        f"Ablation A [{algorithm:10s} n={n_nodes:3d}]: "
        + " -> ".join(p.unit for p in plan.chain_from_root())
        + f"  score={plan.score[0]:.3f} ms"
    )
