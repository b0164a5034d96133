"""Tests for credential translators (Environment, Function/Rule)."""

import pytest

from repro.network import (
    CredentialRule,
    CredentialTranslator,
    Environment,
    FunctionTranslator,
    LinkInfo,
    Network,
    NodeInfo,
    RuleTranslator,
)


def test_environment_mapping_protocol():
    env = Environment({"A": 1, "B": True})
    assert env["A"] == 1
    assert env.get("C") is None
    assert env.get("C", 7) == 7
    assert "B" in env and "C" not in env


def test_default_translator_fails_closed():
    t = CredentialTranslator()
    assert t.node_environment(NodeInfo("n")).values == {}


def test_function_translator():
    t = FunctionTranslator(
        node_fn=lambda n: {"Trust": n.credentials.get("t", 0)},
        path_fn=lambda p: {"Secure": p.secure},
    )
    assert t.node_environment(NodeInfo("n", credentials={"t": 4}))["Trust"] == 4
    net = Network()
    net.add_node("a")
    net.add_node("b")
    net.add_link("a", "b", secure=False)
    assert t.path_environment(net.path("a", "b"))["Secure"] is False


def test_function_translator_partial():
    # Only a node function given: path environments stay empty.
    t = FunctionTranslator(node_fn=lambda n: {"X": 1})
    net = Network()
    net.add_node("x")
    assert t.path_environment(net.path("x", "x")).values == {}


def test_credential_rule_value_map_and_default():
    rule = CredentialRule("zone", "Trust", value_map={"dmz": 1, "core": 5}, default=2)
    out = {}
    rule.apply({"zone": "core"}, out)
    assert out == {"Trust": 5}
    out = {}
    rule.apply({"zone": "unknown"}, out)
    assert out == {"Trust": 2}
    out = {}
    rule.apply({}, out)
    assert out == {"Trust": 2}


def test_credential_rule_no_default_emits_nothing():
    rule = CredentialRule("zone", "Trust")
    out = {}
    rule.apply({}, out)
    assert out == {}


def test_rule_translator_node():
    t = RuleTranslator(node_rules=[CredentialRule("trust_level", "TrustLevel")])
    env = t.node_environment(NodeInfo("n", credentials={"trust_level": 3}))
    assert env["TrustLevel"] == 3


def test_rule_translator_path_combines_conservatively():
    t = RuleTranslator(link_rules=[CredentialRule("secure", "Confidential")])
    net = Network()
    for n in "abc":
        net.add_node(n)
    net.add_link("a", "b", latency_ms=1, secure=True)
    net.add_link("b", "c", latency_ms=1, secure=False)
    assert t.path_environment(net.path("a", "c"))["Confidential"] is False
    assert t.path_environment(net.path("a", "b"))["Confidential"] is True


def test_rule_translator_numeric_min_combiner():
    t = RuleTranslator(link_rules=[CredentialRule("bandwidth_mbps", "Capacity")])
    net = Network()
    for n in "abc":
        net.add_node(n)
    net.add_link("a", "b", latency_ms=1, bandwidth_mbps=100)
    net.add_link("b", "c", latency_ms=1, bandwidth_mbps=10)
    assert t.path_environment(net.path("a", "c"))["Capacity"] == 10


def test_rule_translator_custom_combiner():
    t = RuleTranslator(
        link_rules=[CredentialRule("latency_ms", "TotalLatency")],
        combiners={"TotalLatency": lambda a, b: a + b},
    )
    net = Network()
    for n in "abc":
        net.add_node(n)
    net.add_link("a", "b", latency_ms=10)
    net.add_link("b", "c", latency_ms=20)
    assert t.path_environment(net.path("a", "c"))["TotalLatency"] == 30


def test_rule_translator_local_path_is_permissive():
    t = RuleTranslator(link_rules=[CredentialRule("secure", "Confidential")])
    net = Network()
    net.add_node("x")
    assert t.path_environment(net.path("x", "x"))["Confidential"] is True


def test_rule_translator_conflicting_strings_drop_property():
    t = RuleTranslator(link_rules=[CredentialRule("owner", "Owner")])
    net = Network()
    for n in "abc":
        net.add_node(n)
    net.add_link("a", "b", latency_ms=1, credentials={"owner": "isp1"})
    net.add_link("b", "c", latency_ms=1, credentials={"owner": "isp2"})
    # Different owners per hop: not vouched end-to-end.
    assert t.path_environment(net.path("a", "c"))["Owner"] is None
