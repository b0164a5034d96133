"""Network partition: requests over severed paths degrade or fail
gracefully, and replanning/routing recovers service.

A view answers reads it cannot forward upstream from its own store — a
*degraded* read, counted in the coherence stats — and goes back to its
upstream as soon as a path to it exists again.
"""

import pytest

from repro.experiments.mail_setup import build_mail_testbed


def _sever_sandiego(rt):
    rt.network.remove_link("newyork-gw", "sandiego-gw")
    rt.network.remove_link("sandiego-gw", "seattle-gw")


def test_partition_serves_degraded_reads():
    tb = build_mail_testbed(clients_per_site=2, flush_policy="never")
    rt = tb.runtime
    proxy = rt.run(rt.client_connect("sandiego-client1", {"User": "Bob"}))
    _sever_sandiego(rt)

    # Local sends still work (absorbed by the local cache).
    local = rt.run(proxy.request(
        "send_mail", {"recipient": "Alice", "sensitivity": 2, "body": "x"}))
    assert local.ok

    # A fetch forced upstream cannot cross the partition: the view
    # serves what it holds locally and accounts the stale read.
    remote = rt.run(proxy.request(
        "fetch_mail", {"user": "Bob", "max_sensitivity": 5}))
    assert remote.ok
    assert rt.coherence.stats.degraded_reads == 1


def test_partition_heals_and_requests_recover():
    tb = build_mail_testbed(clients_per_site=2, flush_policy="never")
    rt = tb.runtime
    proxy = rt.run(rt.client_connect("sandiego-client1", {"User": "Bob"}))
    _sever_sandiego(rt)
    cut = rt.run(proxy.request("fetch_mail", {"user": "Bob", "max_sensitivity": 5}))
    assert cut.ok
    assert rt.coherence.stats.degraded_reads == 1  # served from the view

    # Reconnect; the same deployment reaches its upstream again (routing
    # is dynamic), so the fetch is no longer degraded.
    rt.network.add_link("newyork-gw", "sandiego-gw",
                        latency_ms=200.0, bandwidth_mbps=20.0, secure=False)
    good = rt.run(proxy.request("fetch_mail", {"user": "Bob", "max_sensitivity": 5}))
    assert good.ok
    assert rt.coherence.stats.degraded_reads == 1
