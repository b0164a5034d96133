"""Golden pin of the 30-bind sequence the ``bind_storm`` benchmark runs.

Planner optimisations promise *byte-identical* plans: same chain, same
placements in the same order, same full score tuple (the DP's tie-breaks
are decided by dict insertion order and a stable sort, so they move
easily).  ``golden/bind_storm_seed7.json`` records, from the commit
before the planner's hot loop was restructured, every bind of the
``clients_per_site=10`` sequence plus one liveness-triggered replanning
round (the host of a shared San Diego view crashes); this test replays
both and compares everything exactly.

Regenerate (only when a plan is *meant* to change) with
``PYTHONPATH=src python tests/planner/test_golden_binds.py``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from repro.experiments import SITES, build_mail_testbed, site_chain
from repro.faults import FaultInjector, FaultPlan
from repro.services.mail import DEFAULT_USERS
from repro.smock import RetryPolicy

GOLDEN = Path(__file__).parent / "golden" / "bind_storm_seed7.json"

#: hosts the ViewMailServer three later San Diego binds link into
CRASHED_NODE = "sandiego-client6"


def _plan_record(topology, plan):
    return {
        "chain": [list(pair) for pair in site_chain(topology, plan)],
        "placements": [[p.label(), p.reused] for p in plan.placements],
        "linkages": [[l.client, l.server, l.interface] for l in plan.linkages],
        "score": list(plan.score),
    }


def replay():
    """The benchmark's seed-7 bind order, then one crash-triggered round."""
    testbed = build_mail_testbed(clients_per_site=10)
    rt = testbed.runtime
    rng = random.Random("bind_storm:7")
    order = []
    for site in SITES:
        nodes = list(testbed.client_nodes(site))
        rng.shuffle(nodes)
        order += [(node, rng.choice(DEFAULT_USERS)) for node in nodes]

    replanner = rt.enable_self_healing(heartbeat_interval_ms=250.0, miss_threshold=3)
    binds = []
    for node, user in order:
        proxy = rt.run(rt.client_connect(node, {"User": user}), f"connect:{user}")
        access = rt.generic_server.accesses[-1]
        binds.append({"node": node, "user": user, **_plan_record(testbed.topology, access.plan)})
        if node.startswith("sandiego") and node != CRASHED_NODE:
            proxy.retry_policy = RetryPolicy(timeout_ms=3000.0, max_retries=15, seed=1)
            replanner.track_access(proxy, access)

    t0 = rt.sim.now
    FaultInjector(rt, FaultPlan.parse([f"crash:{CRASHED_NODE}@{t0 + 1000.0}"], seed=3)).schedule()
    rt.sim.run(until=t0 + 30_000.0)
    rt.failure_detector.stop()
    rt.monitor.stop()

    rounds = [
        {
            "trigger": [e.trigger.kind, e.trigger.subject, e.trigger.attribute, e.trigger.new],
            "rebound": e.rebound,
            "installed": e.installed,
            "retired": e.retired,
            "failures": e.failures,
            "reconciled": e.reconciled,
        }
        for e in replanner.events
        if not e.deferred
    ]
    replanned = [
        {"node": b.request.client_node, **_plan_record(testbed.topology, b.plan)}
        for b in replanner.bindings
    ]
    return {"binds": binds, "replan_rounds": rounds, "replanned": replanned}


def test_bind_sequence_and_replan_round_match_golden():
    got = json.loads(json.dumps(replay()))
    want = json.loads(GOLDEN.read_text())
    assert len(got["binds"]) == 30
    for i, (g, w) in enumerate(zip(got["binds"], want["binds"])):
        assert g == w, f"bind {i} ({w['node']}) moved"
    assert got["replan_rounds"] == want["replan_rounds"]
    assert any(CRASHED_NODE in r["trigger"] for r in got["replan_rounds"])
    assert got["replanned"] == want["replanned"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(replay(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
