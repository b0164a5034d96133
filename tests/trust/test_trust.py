"""Tests for the dRBAC-style trust engine and translator."""

import pytest

from repro.trust import Credential, Role, TrustEngine, TrustError, TrustTranslator, parse_role_value


@pytest.fixture
def engine():
    e = TrustEngine()
    e.register_authority("net", "net-admin")
    e.register_authority("mail", "mail-owner")
    return e


def test_role_parse():
    r = Role.parse("mail.TrustLevel=3")
    assert r.namespace == "mail" and r.name == "TrustLevel=3"
    assert str(r) == "mail.TrustLevel=3"
    with pytest.raises(TrustError):
        Role.parse("no-namespace")
    with pytest.raises(TrustError):
        Role("a.b", "x")


def test_credential_shape_validation():
    role = Role("net", "secure")
    with pytest.raises(TrustError):
        Credential(role=role, issuer="x")  # neither subject nor from_role
    with pytest.raises(TrustError):
        Credential(role=role, issuer="x", subject="s", from_role=role)
    with pytest.raises(TrustError):
        Credential(role=role, issuer="x", subject="s", valid_from=5, valid_until=5)


def test_only_namespace_authority_may_issue(engine):
    engine.attribute("node1", "net.trust=3")  # net-admin by default
    with pytest.raises(TrustError):
        engine.issue(
            Credential(role=Role("net", "trust=5"), issuer="mallory", subject="node1")
        )
    with pytest.raises(TrustError):
        engine.attribute("node1", "unknown.role")


def test_role_closure_via_delegation(engine):
    engine.attribute("node1", "net.trust=3")
    engine.delegate("net.trust=3", "mail.TrustLevel=3")
    assert engine.holds("node1", "mail.TrustLevel=3")
    assert not engine.holds("node2", "mail.TrustLevel=3")


def test_delegation_chains_compose(engine):
    engine.register_authority("corp", "corp-admin")
    engine.attribute("node1", "corp.employee-host")
    engine.delegate("corp.employee-host", "net.trust=3")
    engine.delegate("net.trust=3", "mail.TrustLevel=3")
    assert engine.holds("node1", "mail.TrustLevel=3")
    chain = engine.chain("node1", "mail.TrustLevel=3")
    assert chain is not None
    assert chain[0].subject == "node1"
    assert str(chain[-1].role) == "mail.TrustLevel=3"
    assert len(chain) == 3


def test_chain_absent_when_no_path(engine):
    engine.attribute("node1", "net.trust=3")
    assert engine.chain("node1", "mail.TrustLevel=3") is None


def test_validity_window(engine):
    engine.attribute("node1", "net.trust=3", valid_from=100.0, valid_until=200.0)
    engine.delegate("net.trust=3", "mail.TrustLevel=3")
    assert not engine.holds("node1", "mail.TrustLevel=3", now=50.0)
    assert engine.holds("node1", "mail.TrustLevel=3", now=150.0)
    assert not engine.holds("node1", "mail.TrustLevel=3", now=200.0)  # half-open
    assert engine.holds("node1", "mail.TrustLevel=3", now=None)  # timeless query


def test_revocation_takes_effect_immediately(engine):
    cred = engine.attribute("node1", "net.trust=3")
    engine.delegate("net.trust=3", "mail.TrustLevel=3")
    assert engine.holds("node1", "mail.TrustLevel=3")
    engine.revoke(cred)
    assert not engine.holds("node1", "mail.TrustLevel=3")


def test_revoking_delegation_breaks_translation(engine):
    engine.attribute("node1", "net.trust=3")
    deleg = engine.delegate("net.trust=3", "mail.TrustLevel=3")
    engine.revoke(deleg)
    assert engine.holds("node1", "net.trust=3")
    assert not engine.holds("node1", "mail.TrustLevel=3")


def test_parse_role_value():
    assert parse_role_value("T") is True
    assert parse_role_value("F") is False
    assert parse_role_value("3") == 3
    assert parse_role_value("2.5") == 2.5
    assert parse_role_value("blue") == "blue"


def test_translator_node_environment(engine):
    from repro.network import NodeInfo

    engine.attribute("node1", "net.trust=3")
    engine.delegate("net.trust=3", "mail.TrustLevel=3")
    engine.delegate("net.trust=3", "mail.Confidentiality=T")
    tr = TrustTranslator(engine, "mail")
    env = tr.node_environment(NodeInfo("node1"))
    assert env["TrustLevel"] == 3
    assert env["Confidentiality"] is True
    assert "TrustLevel" not in tr.node_environment(NodeInfo("node2")).values


def test_translator_resolves_multiple_values_with_match_mode(engine):
    from repro.network import NodeInfo
    from repro.services.mail import build_mail_spec

    engine.attribute("node1", "mail.TrustLevel=2", issuer="mail-owner")
    engine.attribute("node1", "mail.TrustLevel=4", issuer="mail-owner")
    tr = TrustTranslator(engine, "mail", spec=build_mail_spec())
    env = tr.node_environment(NodeInfo("node1"))
    assert env["TrustLevel"] == 4  # at_least: strongest attribution wins


def test_translator_path_environment_conjunction(engine):
    from repro.network import Network

    net = Network()
    for n in ("a", "b", "c"):
        net.add_node(n)
    net.add_link("a", "b", latency_ms=1)
    net.add_link("b", "c", latency_ms=1)
    for link, secure in (("a<->b", True), ("b<->c", False)):
        engine.attribute(link, f"mail.Confidentiality={'T' if secure else 'F'}",
                         issuer="mail-owner")
    tr = TrustTranslator(engine, "mail")
    env = tr.path_environment(net.path("a", "c"))
    assert env["Confidentiality"] is False
    env_ab = tr.path_environment(net.path("a", "b"))
    assert env_ab["Confidentiality"] is True


def test_translator_with_clock_reacts_to_expiry(engine):
    from repro.network import NodeInfo

    now = [0.0]
    engine.attribute("node1", "mail.TrustLevel=3", issuer="mail-owner",
                     valid_until=1000.0)
    tr = TrustTranslator(engine, "mail", clock=lambda: now[0])
    assert tr.node_environment(NodeInfo("node1"))["TrustLevel"] == 3
    now[0] = 1500.0
    assert "TrustLevel" not in tr.node_environment(NodeInfo("node1")).values
