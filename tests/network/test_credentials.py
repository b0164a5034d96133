"""Tests for credential translators (Environment, Function)."""

from repro.network import (
    CredentialTranslator,
    Environment,
    FunctionTranslator,
    Network,
    NodeInfo,
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
