"""Deployment executor error handling."""

import pytest

from repro.planner import DeploymentPlan, Placement, PlannedLinkage
from repro.smock import DeploymentError


def test_reused_placement_without_instance_rejected(runtime):
    plan = DeploymentPlan(
        placements=[Placement(unit="MailClient", node="newyork-client1"),
                    Placement(unit="ViewMailServer", node="sandiego-gw",
                              factor_values=(("TrustLevel", 3),), reused=True)],
        linkages=[PlannedLinkage(0, 1, "ServerInterface")],
        root=0,
        client_node="newyork-client1",
    )
    with pytest.raises(DeploymentError, match="reuses"):
        runtime.deploy_manual(plan)


def test_cyclic_plan_rejected(runtime):
    plan = DeploymentPlan(
        placements=[
            Placement(unit="Encryptor", node="newyork-client1"),
            Placement(unit="Decryptor", node="newyork-client1"),
        ],
        linkages=[
            PlannedLinkage(0, 1, "DecryptorInterface"),
            PlannedLinkage(1, 0, "ServerInterface"),
        ],
        root=0,
        client_node="newyork-client1",
    )
    with pytest.raises(DeploymentError, match="cyclic"):
        runtime.deploy_manual(plan)


def test_missing_component_class_rejected(runtime):
    runtime.primary.component_classes.pop("Encryptor")
    plan = DeploymentPlan(
        placements=[Placement(unit="Encryptor", node="newyork-client1")],
        linkages=[],
        root=0,
        client_node="newyork-client1",
    )
    with pytest.raises(DeploymentError, match="no runtime class"):
        runtime.deploy_manual(plan)


def test_unknown_service_bundle_rejected(runtime):
    with pytest.raises(DeploymentError, match="no service registered"):
        runtime.bundle_for("ghost")


def test_client_connect_without_registered_service_rejected():
    from repro.experiments.topology_fig5 import build_fig5_network
    from repro.smock import SmockRuntime

    topo = build_fig5_network(clients_per_site=1)
    bare = SmockRuntime(topo.network)
    with pytest.raises(DeploymentError, match="no service registered"):
        bare.run(bare.client_connect(topo.clients["newyork"][0], {"User": "Bob"}))


def test_add_service_validates_component_units(runtime):
    from repro.services.mail import build_mail_spec, mail_translator
    from repro.smock import RuntimeComponent
    from repro.spec import SpecError

    class X(RuntimeComponent):
        pass

    with pytest.raises(SpecError):
        runtime.add_service(
            "again", build_mail_spec(), mail_translator(), "ClientInterface",
            component_classes={"NotAUnit": X},
        )
    assert "again" not in {b.name for b in runtime.bundles()}


def test_add_service_validates_interface(runtime):
    from repro.services.mail import build_mail_spec, mail_translator
    from repro.spec import SpecError

    with pytest.raises(SpecError):
        runtime.add_service("again", build_mail_spec(), mail_translator(), "Bogus")
    assert "again" not in {b.name for b in runtime.bundles()}
