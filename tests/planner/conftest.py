"""Shared fixtures for planner tests."""

import pytest

from repro.experiments.topology_fig5 import build_fig5_network
from repro.planner import DeploymentState, ExpectedLatency, PlanningContext
from repro.services.mail import build_mail_spec, mail_translator


class _Unpruned(ExpectedLatency):
    """The exhaustive search is only a *complete* reference with its
    branch-and-bound off: ``placement_cost`` charges a placement its
    full CPU service time while the exact score weights it by visit
    probability, so the bound is not admissible below a caching view
    and pruning can cut the optimum (seed 47, n=7: VMC -> VMS[2] ->
    VMS[3] -> installed Encryptor is pruned away)."""

    supports_pruning = False


@pytest.fixture(scope="module")
def mail_spec():
    return build_mail_spec()


@pytest.fixture()
def fig5():
    return build_fig5_network(clients_per_site=2)


@pytest.fixture()
def ctx(mail_spec, fig5):
    return PlanningContext(mail_spec, fig5.network, mail_translator())


@pytest.fixture()
def state_with_ms(ctx, fig5):
    """Deployment state with the primary MailServer pre-installed."""
    state = DeploymentState()
    placement = ctx.instantiate(ctx.spec.unit("MailServer"), fig5.server_node, {})
    assert placement is not None
    state.add(placement)
    return state
