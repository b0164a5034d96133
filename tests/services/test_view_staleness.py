"""When an upstream fetch may clear a view's staleness flag.

An invalidation marks a user stale at a ``ViewMailServer``; the next
fetch goes upstream and merges what it gets.  Only a fetch that covered
everything the view may hold (``since_id == 0`` and a sensitivity cap at
or above the view's trust level) re-validates the user — a bounded one
refreshed part of the local copy and must leave the flag set.
"""

import pytest

from repro.coherence import Update
from repro.experiments.mail_setup import build_mail_testbed
from repro.services.mail import StoredMessage


@pytest.fixture()
def world():
    """Bob behind San Diego's view (trust level 3), marked stale, with
    two messages at the primary the view has not seen."""
    rt = build_mail_testbed(clients_per_site=2, flush_policy="never").runtime
    proxy = rt.run(rt.client_connect("sandiego-client1", {"User": "Bob"}))
    vms = rt.instance_of("ViewMailServer")
    assert vms.trust_level == 3
    low = StoredMessage(sender="Alice", recipient="Bob", sensitivity=1, body=b"low")
    high = StoredMessage(sender="Alice", recipient="Bob", sensitivity=3, body=b"high")
    primary = rt.instance_of("MailServer")
    primary.store.store(low)
    primary.store.store(high)
    vms.on_invalidate([Update(op="store_message", attributes={"recipient": "Bob"})])
    assert "Bob" in vms.stale_users

    def fetch(**payload):
        resp = rt.run(proxy.request("fetch_mail", {"user": "Bob", **payload}))
        assert resp.ok
        return resp.payload["messages"]

    return rt, vms, fetch, low, high


@pytest.mark.parametrize("bounded_by", ["max_sensitivity", "since_id"])
def test_partial_refresh_keeps_the_user_stale(world, bounded_by):
    rt, vms, fetch, low, high = world
    if bounded_by == "max_sensitivity":
        assert fetch(max_sensitivity=1) == [low]  # cap below the view's trust
    else:
        assert fetch(max_sensitivity=3, since_id=low.msg_id) == [high]
    assert "Bob" in vms.stale_users
    assert rt.coherence.stats.stale_reads == 1

    # The wider read is still known-stale: accounted, and sent upstream
    # instead of being served from the partly refreshed local copy.
    forwards = vms.upstream_forwards
    assert fetch(max_sensitivity=3) == [low, high]
    assert rt.coherence.stats.stale_reads == 2
    assert vms.upstream_forwards == forwards + 1
    assert "Bob" not in vms.stale_users


@pytest.mark.parametrize("covering", [dict(max_sensitivity=3), dict(max_sensitivity=5), {}])
def test_covering_refresh_clears_the_flag(world, covering):
    rt, vms, fetch, low, high = world
    assert fetch(**covering) == [low, high]
    assert "Bob" not in vms.stale_users
    assert rt.coherence.stats.stale_reads == 1

    # Re-validated: the next read within the view's trust is a local hit.
    forwards = vms.upstream_forwards
    assert fetch(max_sensitivity=3) == [low, high]
    assert rt.coherence.stats.stale_reads == 1
    assert vms.upstream_forwards == forwards
