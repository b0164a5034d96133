"""Unit tests for the runtime transport and node wrappers."""

import pytest

from repro.network import FunctionTranslator, Network
from repro.smock import RuntimeComponent, ServiceResponse, SmockRuntime
from repro.smock.transport import RuntimeTransport
from repro.sim import Simulator
from repro.spec import Behaviors, ComponentDef, InterfaceBinding, InterfaceDef, PropertyDef, ServiceSpec
from repro.spec.properties import BooleanDomain


def line_network():
    net = Network()
    for n in "abc":
        net.add_node(n, cpu_capacity=1000)
    net.add_link("a", "b", latency_ms=10, bandwidth_mbps=8)
    net.add_link("b", "c", latency_ms=20, bandwidth_mbps=8)
    return net


def test_transport_multihop_store_and_forward():
    sim = Simulator()
    transport = RuntimeTransport(sim, line_network())
    done = []

    def send():
        yield from transport.deliver("a", "c", 10_000)
        done.append(sim.now)

    sim.process(send())
    sim.run()
    # per hop: 10 ms serialization (10kB @ 8Mb/s) + latency; 2 hops.
    assert done == [pytest.approx((10 + 10) + (10 + 20))]
    assert transport.messages_sent == 1
    assert transport.bytes_sent == 10_000


def test_transport_same_node_is_free():
    sim = Simulator()
    transport = RuntimeTransport(sim, line_network())

    def send():
        yield from transport.deliver("b", "b", 10**9)

    sim.process(send())
    sim.run()
    assert sim.now == 0.0


def test_transport_round_trip():
    sim = Simulator()
    transport = RuntimeTransport(sim, line_network())
    done = []

    def rt():
        yield from transport.round_trip("a", "b", 10_000, 1_000)
        done.append(sim.now)

    sim.process(rt())
    sim.run()
    assert done == [pytest.approx((10 + 10) + (1 + 10))]


def tiny_runtime():
    spec = ServiceSpec("svc")
    spec.add_property(PropertyDef("P", BooleanDomain()))
    spec.add_interface(InterfaceDef("I"))
    spec.add_component(
        ComponentDef(
            "Unit",
            implements=(InterfaceBinding("I"),),
            behaviors=Behaviors(code_size_bytes=100_000),
        )
    )
    spec.validate()
    net = line_network()
    rt = SmockRuntime(net, server_node="a")
    rt.add_service(
        "svc", spec, FunctionTranslator(), "I",
        component_classes={"Unit": UnitComponent},
    )
    return spec, rt


class UnitComponent(RuntimeComponent):
    def op_ping(self, req):
        return ServiceResponse(payload={"pong": True})
        yield


def test_wrapper_install_downloads_code_and_charges_startup():
    spec, rt = tiny_runtime()
    wrapper = rt.wrappers["c"]

    def install():
        inst = yield from wrapper.install(
            spec.unit("Unit"), UnitComponent, {}, "unit#1", code_from="a"
        )
        return inst

    proc = rt.sim.process(install())
    inst = rt.sim.run_until_complete(proc)
    # 100 kB over two 8 Mb/s hops (100 ms each) + latencies + 400 ms startup.
    assert rt.sim.now == pytest.approx(100 + 10 + 100 + 20 + 400)
    assert rt.transport.node("c").installed["unit#1"] is inst
    assert wrapper.bytes_downloaded == 100_000
    assert inst.node_name == "c"


def test_wrapper_local_code_skips_download():
    spec, rt = tiny_runtime()
    wrapper = rt.wrappers["a"]

    def install():
        inst = yield from wrapper.install(
            spec.unit("Unit"), UnitComponent, {}, "unit#2", code_from="a"
        )
        return inst

    rt.sim.run_until_complete(rt.sim.process(install()))
    assert rt.sim.now == pytest.approx(400.0)  # startup only
    assert wrapper.bytes_downloaded == 0


def test_wrapper_connect_and_uninstall():
    spec, rt = tiny_runtime()
    wa, wb = rt.wrappers["a"], rt.wrappers["b"]

    def install_two():
        s = yield from wa.install(spec.unit("Unit"), UnitComponent, {}, "srv", code_from=None)
        c = yield from wb.install(spec.unit("Unit"), UnitComponent, {}, "cli", code_from=None)
        return s, c

    server, client = rt.sim.run_until_complete(rt.sim.process(install_two()))
    stub = wb.connect(client, "I", server)
    assert client.stub_for("I") is stub

    def call():
        from repro.smock import ServiceRequest

        resp = yield from client.call("I", ServiceRequest(op="ping"))
        return resp

    resp = rt.sim.run_until_complete(rt.sim.process(call()))
    assert resp.ok and resp.payload["pong"]

    wa.uninstall("srv")
    assert "srv" not in rt.transport.node("a").installed


def test_component_without_binding_fails_cleanly():
    spec, rt = tiny_runtime()
    wrapper = rt.wrappers["a"]

    def install():
        inst = yield from wrapper.install(spec.unit("Unit"), UnitComponent, {}, "x", None)
        return inst

    inst = rt.sim.run_until_complete(rt.sim.process(install()))
    from repro.smock import RequestError, ServiceRequest

    def call():
        yield from inst.call("I", ServiceRequest(op="ping"))

    proc = rt.sim.process(call())
    with pytest.raises(RequestError):
        rt.sim.run_until_complete(proc)
