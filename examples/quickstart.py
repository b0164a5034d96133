#!/usr/bin/env python3
"""Quickstart: declare a tiny partitionable service, plan it, run it.

Walks the full Figure 1 timeline on a two-site network:

1. declare a service (one spec string in the paper's readable form);
2. register it with the framework and pre-install the primary;
3. a client looks the service up, triggering planning + deployment;
4. requests flow through the deployed components.

Run with::

    python examples/quickstart.py
"""

from repro.network import FunctionTranslator, Network
from repro.smock import RuntimeComponent, ServiceResponse, SmockRuntime
from repro.spec import parse_service

SPEC = """
<Service>
Name: kvstore

<Property>
Name: Confidentiality
Type: Boolean
Values: T, F
</Property>

<Property>
Name: Persistent
Type: Boolean
Values: T, F
</Property>

<Interface>
Name: ClientInterface
Properties: Confidentiality
</Interface>

<Interface>
Name: StoreInterface
Properties: Confidentiality
</Interface>

<Component>
Name: Client
<Linkages>
<Implements>
Name: ClientInterface
Properties: Confidentiality = F
</Implements>
<Requires>
Name: StoreInterface
Properties: Confidentiality = T
</Requires>
</Linkages>
<Behaviors>
RequestRate: 5
</Behaviors>
</Component>

<Component>
Name: Store
<Linkages>
<Implements>
Name: StoreInterface
Properties: Confidentiality = T
</Implements>
</Linkages>
<Conditions>
Properties: Persistent = T
</Conditions>
<Behaviors>
Capacity: 1000
</Behaviors>
</Component>

<PropertyModificationRule>
Name: Confidentiality
Rules:
(In: T) x (Env: T) = (Out: T)
(In: F) x (Env: ANY) = (Out: F)
(In: ANY) x (Env: F) = (Out: F)
</PropertyModificationRule>

</Service>
"""


class ClientComponent(RuntimeComponent):
    """Forwards get/put operations to its bound store."""

    def op_put(self, req):
        resp = yield from self.call("StoreInterface", req)
        return resp

    def op_get(self, req):
        resp = yield from self.call("StoreInterface", req)
        return resp


class StoreComponent(RuntimeComponent):
    """An in-memory key/value store."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.data = {}

    def op_put(self, req):
        self.data[req.payload["key"]] = req.payload["value"]
        return ServiceResponse(payload={"stored": req.payload["key"]})
        yield  # generator marker

    def op_get(self, req):
        value = self.data.get(req.payload["key"])
        return ServiceResponse(payload={"value": value})
        yield  # generator marker


def main() -> None:
    # 1. The service specification.
    spec = parse_service(SPEC)
    print(f"parsed spec: {spec}")

    # 2. A two-site network: the client's site and the datacenter,
    #    joined by a slow *secure* WAN link.  Only the datacenter has
    #    durable storage, so the Store's installation condition pins it
    #    there — the planner cannot "solve" the problem by deploying a
    #    fresh empty store next to the client.
    net = Network()
    net.add_node("dc", cpu_capacity=4000, credentials={"durable": True})
    net.add_node("branch", cpu_capacity=1000, credentials={"durable": False})
    net.add_link("dc", "branch", latency_ms=80.0, bandwidth_mbps=50.0, secure=True)

    translator = FunctionTranslator(
        node_fn=lambda node: {
            "Confidentiality": True,
            "Persistent": bool(node.credentials.get("durable", False)),
        },
        path_fn=lambda path: {"Confidentiality": path.secure},
    )

    # 3. Stand up the runtime, add the service with its component
    #    classes, pre-install the primary store in the datacenter.
    runtime = SmockRuntime(net, server_node="dc")
    runtime.add_service(
        "kvstore",
        spec,
        translator,
        default_interface="ClientInterface",
        component_classes={"Client": ClientComponent, "Store": StoreComponent},
    )
    runtime.preinstall("Store", "dc")

    # 4. A client at the branch connects: lookup -> proxy download ->
    #    planning -> deployment -> service-specific proxy.
    proxy = runtime.run(runtime.client_connect("branch"))
    print(f"bound to {proxy.root.label} after {runtime.sim.now:.0f} simulated ms")
    print(f"one-time costs: {runtime.bind_records[0]}")

    # 5. Use the service.
    resp = runtime.run(proxy.request("put", {"key": "greeting", "value": "hello"}))
    assert resp.ok
    resp = runtime.run(proxy.request("get", {"key": "greeting"}))
    print(f"get(greeting) -> {resp.payload['value']!r}")
    assert proxy.root.unit.name == "Client"
    store = runtime.instance_of("Store", "dc")
    assert store.data == {"greeting": "hello"}
    print(f"mean request latency: {proxy.latency.mean:.1f} ms "
          f"(the 80 ms WAN round trip dominates)")


if __name__ == "__main__":
    main()
