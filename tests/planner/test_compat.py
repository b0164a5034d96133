"""Tests for the planner's condition-1 and condition-2 machinery."""

import pytest

from repro.planner import PlanningContext
from repro.spec import ANY


def admits(ctx, client, client_node, server, server_node, interface):
    """Condition 2 for one linkage, checked as the search algorithms do."""
    required = ctx.required_props(client, client_node, interface)
    implemented = ctx.resolved_implements(server, server_node)[interface]
    return ctx.link_ok(required, implemented, client_node, server_node)


def test_node_env_translates_credentials(ctx):
    env = ctx.node_env("newyork-ms")
    assert env["TrustLevel"] == 5
    assert env["Confidentiality"] is True
    assert ctx.node_env("seattle-gw")["TrustLevel"] == 2


def test_node_env_merges_request_context(ctx):
    env = ctx.node_env("newyork-ms", {"User": "Alice"})
    assert env["User"] == "Alice"
    # base env is not polluted
    assert "User" not in ctx.node_env("newyork-ms")


def test_path_env_secure_within_site(ctx):
    env = ctx.link_env("newyork-gw", "newyork-ms")[0]
    assert env["Confidentiality"] is True


def test_path_env_insecure_across_sites(ctx):
    env = ctx.link_env("sandiego-gw", "newyork-ms")[0]
    assert env["Confidentiality"] is False


def test_path_env_local_is_confidential(ctx):
    assert ctx.link_env("newyork-ms", "newyork-ms")[0]["Confidentiality"] is True


def test_installable_conditions(ctx, mail_spec):
    ms = mail_spec.unit("MailServer")
    assert ctx.installable(ms, "newyork-ms")  # trust 5
    assert not ctx.installable(ms, "sandiego-gw")  # trust 3

    vms = mail_spec.unit("ViewMailServer")
    assert ctx.installable(vms, "sandiego-gw")  # trust 3 in (1,3)
    assert ctx.installable(vms, "seattle-gw")  # trust 2
    assert not ctx.installable(vms, "newyork-ms")  # trust 5 outside (1,3)


def test_installable_acl_condition(ctx, mail_spec):
    mc = mail_spec.unit("MailClient")
    assert ctx.installable(mc, "newyork-client1", {"User": "Alice"})
    assert not ctx.installable(mc, "newyork-client1", {"User": "Mallory"})
    assert not ctx.installable(mc, "newyork-client1", {})  # no user at all
    # and the trust condition: Seattle (trust 2) is too low for the full client
    assert not ctx.installable(mc, "seattle-client1", {"User": "Alice"})


def test_resolve_factors_binds_node_trust(ctx, mail_spec):
    vms = mail_spec.unit("ViewMailServer")
    assert ctx.resolve_factors(vms, "sandiego-gw") == {"TrustLevel": 3}
    assert ctx.resolve_factors(vms, "seattle-gw") == {"TrustLevel": 2}
    mc = mail_spec.unit("MailClient")
    assert ctx.resolve_factors(mc, "sandiego-gw") == {}


def test_resolved_implements_substitutes_env_refs(ctx, mail_spec):
    vms = mail_spec.unit("ViewMailServer")
    impl = ctx.resolved_implements(vms, "sandiego-gw")
    assert impl["ServerInterface"]["TrustLevel"] == 3
    assert impl["ServerInterface"]["Confidentiality"] is True


def test_properties_compatible_superset_rule(ctx):
    # Required subset of implemented, env transparent -> compatible.
    assert ctx.properties_compatible(
        {"Confidentiality": True},
        {"Confidentiality": True, "TrustLevel": 5},
        {"Confidentiality": True},
    )
    # Missing property on the implementation side -> incompatible.
    assert not ctx.properties_compatible(
        {"TrustLevel": 3}, {"Confidentiality": True}, {}
    )


def test_properties_compatible_env_modification(ctx):
    # Confidentiality=T across an insecure environment degrades to F.
    assert not ctx.properties_compatible(
        {"Confidentiality": True},
        {"Confidentiality": True},
        {"Confidentiality": False},
    )


def test_properties_compatible_at_least_mode(ctx):
    # TrustLevel is declared AtLeast: an implementation at 5 satisfies 3.
    assert ctx.properties_compatible(
        {"TrustLevel": 3}, {"TrustLevel": 5}, {}
    )
    assert not ctx.properties_compatible(
        {"TrustLevel": 5}, {"TrustLevel": 3}, {}
    )


def test_properties_compatible_any_implementation(ctx):
    # The Encryptor's TrustLevel=ANY is transparent.
    assert ctx.properties_compatible(
        {"TrustLevel": 4}, {"TrustLevel": ANY, "Confidentiality": True}, {"Confidentiality": True}
    )


def test_linkage_compatible_direct_vs_insecure(ctx, mail_spec):
    mc = mail_spec.unit("MailClient")
    ms = mail_spec.unit("MailServer")
    # NY client to NY server: secure intra-site path.
    assert admits(ctx, mc, "newyork-client1", ms, "newyork-ms", "ServerInterface")
    # SD client to NY server: the insecure inter-site path kills it.
    assert not admits(ctx, mc, "sandiego-client1", ms, "newyork-ms", "ServerInterface")


def test_linkage_compatible_encryptor_bridges(ctx, mail_spec):
    mc = mail_spec.unit("MailClient")
    enc = mail_spec.unit("Encryptor")
    dec = mail_spec.unit("Decryptor")
    ms = mail_spec.unit("MailServer")
    # Client to local Encryptor: fine.
    assert admits(ctx, mc, "sandiego-client1", enc, "sandiego-gw", "ServerInterface")
    # Encryptor to remote Decryptor over the insecure link: the
    # DecryptorInterface carries no property requirements.
    assert admits(ctx, enc, "sandiego-gw", dec, "newyork-gw", "DecryptorInterface")
    # Decryptor to the server, locally: fine.
    assert admits(ctx, dec, "newyork-gw", ms, "newyork-ms", "ServerInterface")
    # But a Decryptor stranded in San Diego cannot reach the NY server.
    assert not admits(ctx, dec, "sandiego-gw", ms, "newyork-ms", "ServerInterface")


def test_env_caches_invalidate_on_network_change(ctx):
    assert ctx.link_env("sandiego-gw", "newyork-gw")[0]["Confidentiality"] is False
    ctx.network.link("sandiego-gw", "newyork-gw").secure = True
    ctx.network.touch()
    assert ctx.link_env("sandiego-gw", "newyork-gw")[0]["Confidentiality"] is True
