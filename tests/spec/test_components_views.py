"""Unit tests for component/view declarations and env-ref resolution."""

import pytest

from repro.network import FunctionTranslator, Network
from repro.planner import PlanningContext
from repro.spec import (
    ANY,
    Behaviors,
    ComponentDef,
    Condition,
    EnvRef,
    InterfaceBinding,
    ServiceSpec,
    SpecError,
    ValueRange,
    ViewDef,
    resolve_env_refs,
)


def planning_context(**node_envs):
    """The planner's context over one node per keyword, each node's
    environment being exactly the given mapping."""
    net = Network()
    for name, env in node_envs.items():
        net.add_node(name, credentials=env)
    translator = FunctionTranslator(lambda node: node.credentials)
    return PlanningContext(ServiceSpec("svc"), net, translator)


def test_resolve_env_refs_substitutes_and_defaults_none():
    props = {"A": EnvRef("Node", "Trust"), "B": 7, "C": EnvRef("Node", "Missing")}
    out = resolve_env_refs(props, {"Trust": 3})
    assert out == {"A": 3, "B": 7, "C": None}


def test_interface_binding_freezes_properties():
    b = InterfaceBinding("I", {"X": 1})
    assert b.properties == {"X": 1}
    with pytest.raises(SpecError):
        InterfaceBinding("", {})


def test_condition_evaluation_forms():
    assert Condition("User", "Alice").evaluate({"User": "Alice"})
    assert not Condition("User", "Alice").evaluate({"User": "Bob"})
    assert Condition("T", ValueRange(1, 3)).evaluate({"T": 2})
    assert not Condition("T", ValueRange(1, 3)).evaluate({})
    assert Condition("Anything", ANY).evaluate({})


def test_behaviors_validation():
    with pytest.raises(SpecError):
        Behaviors(capacity=0)
    with pytest.raises(SpecError):
        Behaviors(cpu_per_request=-1)
    with pytest.raises(SpecError):
        Behaviors(rrf=-0.1)
    with pytest.raises(SpecError):
        Behaviors(bytes_per_request=-1)
    with pytest.raises(SpecError):
        Behaviors(code_size_bytes=-1)
    b = Behaviors()  # defaults valid
    assert b.rrf == 1.0 and b.capacity == float("inf")


def test_component_queries():
    c = ComponentDef(
        "C",
        implements=(InterfaceBinding("I", {"X": 1}),),
        requires=(InterfaceBinding("J"),),
        conditions=(Condition("User", "Alice"),),
    )
    assert c.implements_interface("I").properties == {"X": 1}
    assert c.implements_interface("K") is None
    assert [b.interface for b in c.requires] == ["J"]
    assert not c.is_view
    assert c.installable_in({"User": "Alice"})
    assert not c.installable_in({"User": "Eve"})


def test_component_name_required():
    with pytest.raises(SpecError):
        ComponentDef("")


def test_view_configure_and_identity():
    """The planner binds a view's Factors per node: each node yields its
    own configuration, and an unresolvable factor binds to None."""
    v = ViewDef(
        "V",
        represents="C",
        kind="data",
        factors={"Trust": EnvRef("Node", "Trust")},
        implements=(InterfaceBinding("I", {"Trust": EnvRef("Node", "Trust")}),),
    )
    ctx = planning_context(n2={"Trust": 2}, n3={"Trust": 3}, bare={})
    assert ctx.resolve_factors(v, "n2") == {"Trust": 2}
    assert ctx.resolve_factors(v, "n3") == {"Trust": 3}
    assert ctx.resolve_factors(v, "bare") == {"Trust": None}


def test_view_resolved_implements_prefers_factor_values():
    v = ViewDef(
        "V",
        represents="C",
        factors={"Trust": EnvRef("Node", "Level")},
        implements=(InterfaceBinding("I", {"Trust": EnvRef("Node", "Trust")}),),
    )
    # The node environment claims Trust 5, but the bound factor wins.
    ctx = planning_context(n={"Trust": 5, "Level": 2})
    assert ctx.resolved_implements(v, "n")["I"]["Trust"] == 2


def test_view_is_view_and_kind_checks():
    v = ViewDef("V", represents="C", kind="object")
    assert v.is_view
    with pytest.raises(SpecError):
        ViewDef("V2", represents="")
    with pytest.raises(SpecError):
        ViewDef("V3", represents="C", kind="holographic")
