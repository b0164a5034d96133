"""Fault injection: component failures must be contained, not fatal."""

import pytest

from repro.network import FunctionTranslator, Network
from repro.smock import RuntimeComponent, ServiceRequest, ServiceResponse, SmockRuntime
from repro.spec import Behaviors, ComponentDef, InterfaceBinding, InterfaceDef, ServiceSpec


def build_world(front_cls, back_cls):
    spec = ServiceSpec("svc")
    spec.add_interface(InterfaceDef("Front"))
    spec.add_interface(InterfaceDef("Back"))
    spec.add_component(
        ComponentDef(
            "FrontUnit",
            implements=(InterfaceBinding("Front"),),
            requires=(InterfaceBinding("Back"),),
        )
    )
    spec.add_component(
        ComponentDef("BackUnit", implements=(InterfaceBinding("Back"),))
    )
    spec.validate()
    net = Network()
    net.add_node("a")
    net.add_node("b")
    net.add_link("a", "b", latency_ms=5)
    rt = SmockRuntime(net, server_node="b")
    rt.add_service(
        "svc", spec, FunctionTranslator(), "Front",
        component_classes={"FrontUnit": front_cls, "BackUnit": back_cls},
    )
    rt.preinstall("BackUnit", "b")
    proxy = rt.run(rt.client_connect("a"))
    return rt, proxy


class Forwarder(RuntimeComponent):
    def op_work(self, req):
        resp = yield from self.call("Back", req)
        return resp


class Crasher(RuntimeComponent):
    def op_work(self, req):
        raise RuntimeError("disk on fire")
        yield  # generator marker


class Healthy(RuntimeComponent):
    def op_work(self, req):
        return ServiceResponse(payload={"done": True})
        yield


def test_backend_crash_becomes_failure_response():
    rt, proxy = build_world(Forwarder, Crasher)
    resp = rt.run(proxy.request("work", {}))
    assert not resp.ok
    assert "disk on fire" in resp.error
    assert "BackUnit" in resp.error


def test_frontend_crash_becomes_failure_response():
    rt, proxy = build_world(Crasher, Healthy)
    resp = rt.run(proxy.request("work", {}))
    assert not resp.ok
    assert "FrontUnit" in resp.error


def test_healthy_chain_still_succeeds():
    rt, proxy = build_world(Forwarder, Healthy)
    resp = rt.run(proxy.request("work", {}))
    assert resp.ok and resp.payload["done"]


def test_service_survives_after_a_fault():
    rt, proxy = build_world(Forwarder, Crasher)
    first = rt.run(proxy.request("work", {}))
    assert not first.ok
    # The simulator, components and proxy all remain usable.
    second = rt.run(proxy.request("work", {}))
    assert not second.ok
    assert rt.instance_of("FrontUnit").requests_served == 2


class Narrowed(Healthy):
    op_work = None  # interface narrowed away: no op, not a callable None


class RaisesOnCall(RuntimeComponent):
    def op_work(self, req):  # not a generator: raises when called
        raise RuntimeError("no generator at all")


def _serve(rt, unit, op):
    """Run ``op`` through ``serve`` on the live ``unit`` instance."""
    return rt.run(rt.instance_of(unit).serve(ServiceRequest(op=op)))


@pytest.mark.parametrize(
    "back_cls, op", [(Healthy, "nosuch"), (Narrowed, "work")], ids=["unknown", "narrowed"]
)
def test_an_op_the_component_lacks_answers_has_no_op(back_cls, op):
    rt, _proxy = build_world(Forwarder, back_cls)
    resp = _serve(rt, "BackUnit", op)
    assert not resp.ok and not resp.retryable
    assert resp.error == f"BackUnit has no op {op!r}"
    assert rt.instance_of("BackUnit").requests_served == 1


def test_has_no_op_travels_back_through_a_chain():
    rt, proxy = build_world(Forwarder, Narrowed)
    resp = rt.run(proxy.request("work", {}))
    assert not resp.ok and not resp.retryable
    assert resp.error == "BackUnit has no op 'work'"


@pytest.mark.parametrize(
    "back_cls, message",
    [(Crasher, "RuntimeError: disk on fire"), (RaisesOnCall, "RuntimeError: no generator at all")],
    ids=["while-running", "when-called"],
)
def test_a_handler_exception_is_contained_by_serve(back_cls, message):
    rt, _proxy = build_world(Forwarder, back_cls)
    resp = _serve(rt, "BackUnit", "work")
    assert not resp.ok and not resp.retryable
    assert resp.error.endswith(message) and "BackUnit" in resp.error
    back = rt.instance_of("BackUnit")
    assert back.requests_served == 1 and back.inflight == 0
