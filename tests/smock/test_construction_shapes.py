"""Golden pin of where each runtime construction shape puts its hosts.

For every way the tree builds a :class:`SmockRuntime` — bare (one
service added with no placement options), with the lookup on the
``server_node``, with one or two ``lookup_hosts`` (and leases), through
``build_mail_testbed``, and with a second service on its own
generic-server host — ``golden/construction_shapes.json`` records the
lookup node, the server node, the primary service's code-base node,
each bundle's code-base node and generic-server host, and the lookup
service's hosts (primary first).  The record was taken before the
runtime's redundant options were retired; its ``"lookup"`` field was
re-taken when it changed from the lookup's class name to its host list,
and its bundle keys when every service came to arrive through
``add_service`` under its own name (the first service had been keyed
by a placeholder until then).  Every node field is as first recorded,
and every shape must still resolve exactly as recorded.

Regenerate (only when a placement is *meant* to change) with
``PYTHONPATH=src python tests/smock/test_construction_shapes.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import build_mail_testbed
from repro.experiments.topology_fig5 import build_fig5_network
from repro.services.mail import build_mail_spec, mail_translator
from repro.smock import LeaseConfig, LookupService, SmockRuntime

GOLDEN = Path(__file__).parent / "golden" / "construction_shapes.json"


def _runtime(**kwargs):
    topo = build_fig5_network(clients_per_site=1)
    runtime = SmockRuntime(topo.network, **kwargs)
    runtime.add_service("mail", build_mail_spec(), mail_translator(), "ClientInterface")
    return runtime


def bare():
    return _runtime()


def lookup_at_server_node():
    return _runtime(server_node="newyork-ms")


def one_lookup_host_and_server_node():
    return _runtime(lookup_hosts=["sandiego-gw"], server_node="newyork-ms")


def two_lookup_hosts_with_leases():
    return _runtime(
        lookup_hosts=["sandiego-gw", "seattle-gw"],
        lookup_leases=LeaseConfig(duration_ms=15_000.0),
    )


def second_service_on_a_gateway():
    runtime = _runtime(server_node="newyork-ms")
    runtime.add_service(
        "mail2", build_mail_spec(), mail_translator(),
        default_interface="ClientInterface", server_node="newyork-gw",
    )
    return runtime


def mail_testbed():
    return build_mail_testbed(clients_per_site=1).runtime


def mail_testbed_leased_lookup():
    return build_mail_testbed(
        clients_per_site=1,
        lookup_hosts=["sandiego-gw", "seattle-gw"],
        lookup_leases=LeaseConfig(duration_ms=15_000.0),
    ).runtime


SHAPES = {
    fn.__name__: fn
    for fn in (
        bare,
        lookup_at_server_node,
        one_lookup_host_and_server_node,
        two_lookup_hosts_with_leases,
        second_service_on_a_gateway,
        mail_testbed,
        mail_testbed_leased_lookup,
    )
}


def resolved(runtime):
    return {
        "lookup_node": runtime.lookup_node,
        "server_node": runtime.server_node,
        "code_base_node": runtime.primary.code_base_node,
        "bundles": {
            b.name: {
                "code_base_node": b.code_base_node,
                "server_node": b.server.host_node,
            }
            for b in runtime.bundles()
        },
        "lookup": runtime.lookup.hosts,
    }


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_shape_resolves_as_recorded(shape):
    golden = json.loads(GOLDEN.read_text())
    runtime = SHAPES[shape]()
    assert type(runtime.lookup) is LookupService
    assert resolved(runtime) == golden[shape]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: resolved(fn()) for name, fn in SHAPES.items()}, indent=1)
        + "\n"
    )
    print(f"wrote {GOLDEN}")
