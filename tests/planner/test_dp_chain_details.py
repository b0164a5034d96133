"""DP-chain planner internals and edge cases."""

import pytest

from repro.planner import (
    DeploymentState,
    DPStats,
    ExpectedLatency,
    MaxCapacity,
    PlanRequest,
    plan_dp_chain,
)
from repro.planner import dp_chain
from repro.planner.dp_chain import _chain_probs
from repro.planner.linkage import MAX_REPEAT

from .conftest import _Unpruned


def test_chain_probs_first_occurrence_only(ctx):
    probs = _chain_probs(ctx, ["MailClient", "ViewMailServer", "ViewMailServer", "MailServer"])
    # MailClient rrf 1.0; first VMS applies 0.2; repeated VMS does not.
    assert probs == pytest.approx([1.0, 0.2, 0.2, 0.2])


def test_chain_probs_encryptor_transparent(ctx):
    probs = _chain_probs(ctx, ["MailClient", "Encryptor", "Decryptor", "MailServer"])
    assert probs == pytest.approx([1.0, 1.0, 1.0, 1.0])


def test_stats_populated(ctx, state_with_ms):
    stats = DPStats()
    request = PlanRequest("ClientInterface", "sandiego-client1", context={"User": "Bob"})
    plan = plan_dp_chain(ctx, request, state_with_ms, ExpectedLatency(), stats)
    assert plan is not None
    assert stats.chains_considered > 0
    assert stats.states_evaluated > 0
    assert stats.plans_scored > 0


def test_reused_root_completes_immediately(ctx, state_with_ms):
    request = PlanRequest("ClientInterface", "newyork-client1", context={"User": "Alice"})
    first = plan_dp_chain(ctx, request, state_with_ms, ExpectedLatency())
    state_with_ms.absorb(first)
    again = plan_dp_chain(ctx, request, state_with_ms, ExpectedLatency())
    assert [p.reused for p in again.placements] == [True]
    assert again.linkages == []


def test_max_repeat_bounds_view_chains(ctx, state_with_ms):
    """No chain the DP considers repeats a unit more than ``MAX_REPEAT``
    times, however many units the request allows; and the bound is the
    one that binds, not ``max_units``."""
    request = PlanRequest(
        "ClientInterface", "sandiego-client1", context={"User": "Bob"}, max_units=8
    )
    plan = plan_dp_chain(ctx, request, state_with_ms, ExpectedLatency())
    assert plan is not None
    assert [p.unit for p in plan.placements].count("ViewMailServer") <= MAX_REPEAT
    shapes = dp_chain._chain_shapes(ctx, ctx.chain_tables(), "ClientInterface", 8)
    assert shapes
    for units, _ifaces, _probs in shapes:
        assert max(units.count(name) for name in units) <= MAX_REPEAT
    assert max(units.count("ViewMailServer") for units, _i, _p in shapes) == MAX_REPEAT


def test_load_violating_chain_discarded(ctx, state_with_ms):
    # At a rate exceeding the VMS capacity, the cached chain is
    # infeasible; the planner must fall back to a valid one or none.
    request = PlanRequest(
        "ClientInterface", "sandiego-client1",
        context={"User": "Bob"}, request_rate=600.0,  # > VMS capacity 500
    )
    plan = plan_dp_chain(ctx, request, state_with_ms, ExpectedLatency())
    if plan is not None:
        from repro.planner import check_loads

        assert check_loads(ctx, plan, 600.0).ok
        assert "ViewMailServer" not in {p.unit for p in plan.placements}


def test_root_on_client_false_allows_remote_roots(ctx, state_with_ms):
    request = PlanRequest(
        "ServerInterface", "sandiego-client1", root_on_client=False, max_units=3
    )
    plan = plan_dp_chain(ctx, request, state_with_ms, ExpectedLatency())
    assert plan is not None


def test_each_distinct_completion_is_scored_once(ctx, state_with_ms, monkeypatch):
    """The 20 ClientInterface chains share 48 cells, so they offer the
    same completions again and again; each is load-checked and scored
    the first time only, and the plan chosen is still the one scoring
    every offer would choose (a repeat ties with its first occurrence,
    and only a strictly lower score replaces the incumbent)."""
    scored, plans = [], []
    finish = dp_chain.finish_plan

    def spy(ctx_, request_, objective, placements, linkages):
        scored.append((tuple(placements), tuple(linkages)))
        plans.append(finish(ctx_, request_, objective, placements, linkages))
        return plans[-1]

    monkeypatch.setattr(dp_chain, "finish_plan", spy)
    offers = []  # one backtrace per completion a chain offers
    backtrace = dp_chain._backtrace
    monkeypatch.setattr(
        dp_chain, "_backtrace",
        lambda path, depth, placement: (
            offers.append(placement) or backtrace(path, depth, placement)
        ),
    )
    for node, user in [("sandiego-client1", "Bob"), ("sandiego-client2", "Alice")]:
        # the second bind also completes early, at what the first installed
        del scored[:], plans[:], offers[:]
        stats = DPStats()
        request = PlanRequest("ClientInterface", node, context={"User": user})
        chosen = plan_dp_chain(ctx, request, state_with_ms, ExpectedLatency(), stats)
        assert len(scored) == len(set(scored)) == stats.plans_scored
        assert len(offers) > stats.plans_scored  # some offers were repeats
        valid = [plan for plan in plans if plan is not None]
        assert chosen is min(valid, key=lambda plan: plan.score)  # min keeps the first
        state_with_ms.absorb(chosen)


# -- the root floor: chains that cannot beat the incumbent go unsolved -------------


def _chains_solved(ctx, state, node, user, objective):
    stats = DPStats()
    request = PlanRequest("ClientInterface", node, context={"User": user})
    return plan_dp_chain(ctx, request, state, objective, stats), stats.chains_considered


def _n_chains(ctx):
    return len(dp_chain._chain_shapes(ctx, ctx.chain_tables(), "ClientInterface", 6))


@pytest.mark.parametrize(
    "node, user, solved", [("newyork-client1", "Alice", 10), ("sandiego-client1", "Bob", 12)]
)
def test_view_chains_after_a_mailclient_plan_go_unsolved(ctx, state_with_ms, node, user, solved):
    """Once a MailClient plan scores below the view penalty, no
    ViewMailClient-rooted chain can beat it: the plan is the one the
    unpruned search finds, from fewer chains."""
    plan, chains = _chains_solved(ctx, state_with_ms, node, user, ExpectedLatency())
    reference, all_chains = _chains_solved(ctx, state_with_ms, node, user, _Unpruned())
    assert plan.placements[0].unit == "MailClient"
    assert (plan.placements, plan.linkages, plan.score) == (
        reference.placements, reference.linkages, reference.score,
    )
    assert all_chains == _n_chains(ctx) == 20
    assert chains == solved


def test_seattle_where_mailclient_cannot_install_skips_no_chain(ctx, state_with_ms):
    plan, chains = _chains_solved(ctx, state_with_ms, "seattle-client1", "Carol", ExpectedLatency())
    assert plan.placements[0].unit == "ViewMailClient"
    assert plan.score[0] > ExpectedLatency.root_view_penalty
    assert chains == _n_chains(ctx)


def test_an_objective_without_pruning_skips_no_chain(ctx, state_with_ms):
    """``MaxCapacity``'s primary term is a negated headroom, so the view
    penalty is no floor on it."""
    plan, chains = _chains_solved(ctx, state_with_ms, "newyork-client1", "Alice", MaxCapacity())
    assert plan.placements[0].unit == "MailClient"
    assert chains == _n_chains(ctx)


def test_view_plan_found_when_every_mailclient_completion_fails_condition_3(
    ctx, fig5, state_with_ms
):
    """A MailClient chain with no plan sets no incumbent: at 10 req/s a
    MailClient needs 5 CPU units/s and a ViewMailClient 4, so on a 4.5
    units/s client node only the view plan passes condition 3."""
    node = "newyork-client1"
    fig5.network.node(node).cpu_capacity = 4.5
    fig5.network.touch()
    plan, chains = _chains_solved(ctx, state_with_ms, node, "Alice", ExpectedLatency())
    reference, _ = _chains_solved(ctx, state_with_ms, node, "Alice", _Unpruned())
    assert plan is not None and plan.placements[0].unit == "ViewMailClient"
    assert plan.score == reference.score
    assert chains == _n_chains(ctx)


def test_a_tie_with_the_floor_is_still_solved(ctx, state_with_ms):
    """The skip needs a floor strictly above the incumbent.  Under an
    objective whose primary term is the root penalty alone, every
    MailClient plan scores 0.0, a MailClient chain's floor ties with
    the incumbent, and the next term, which prefers longer plans, must
    still see every MailClient chain."""

    class RootOnly(ExpectedLatency):
        name = "root_only"

        def edge_weight(self, ctx, client_unit, client_node, server_node):
            return 0.0

        def placement_cost(self, ctx, unit, node, reused):
            return 0.0

        def score(self, ctx, plan, request_rate, report=None):
            return (self.root_penalty(ctx, plan), -float(len(plan.placements)))

    class RootOnlyUnpruned(RootOnly):
        supports_pruning = False

    for node, user in [("newyork-client1", "Alice"), ("sandiego-client1", "Bob")]:
        plan, chains = _chains_solved(ctx, state_with_ms, node, user, RootOnly())
        reference, _ = _chains_solved(ctx, state_with_ms, node, user, RootOnlyUnpruned())
        assert (plan.placements, plan.score) == (reference.placements, reference.score)
        assert len(plan.placements) > 3  # not the first MailClient plan found
        assert chains < _n_chains(ctx)  # the view-rooted chains still go
