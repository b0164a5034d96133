"""Shared fixtures for planner tests."""

import pytest

from repro.experiments.topology_fig5 import build_fig5_network
from repro.planner import DeploymentState, PlanningContext
from repro.services.mail import build_mail_spec, mail_translator


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
