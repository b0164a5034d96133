"""End-to-end: a mail-service ``client_connect`` produces the expected
span tree, planner counters, and coherence counters.

The tree the paper's Figure 1 timeline implies::

    client_connect
      lookup
      bind
        access
          plan
            planner.plan
              planner.linkage.enumerate
          deploy
            install (one per freshly installed component)
"""

import pytest

from repro.experiments import build_mail_testbed
from repro.obs import Observability, use_obs


def child_spans(recorder, span):
    """The spans whose parent is ``span``, in recording order."""
    return [r for r in recorder.spans() if r.get("parent_id") == span["span_id"]]


@pytest.fixture()
def traced_run():
    obs = Observability()
    with use_obs(obs):
        testbed = build_mail_testbed(clients_per_site=1, algorithm="dp_chain")
        runtime = testbed.runtime
        node = testbed.client_nodes("sandiego")[0]
        runtime.run(runtime.client_connect(node, {"User": "Bob"}), "connect:Bob")
    return obs, runtime, node


def test_client_connect_span_tree(traced_run):
    obs, runtime, node = traced_run
    rec = obs.recorder

    root = rec.spans("client_connect")[0]
    assert root["parent_id"] is None
    assert root["attrs"]["client_node"] == node
    assert [c["name"] for c in child_spans(rec, root)] == ["lookup", "bind"]

    bind = rec.spans("bind")[0]
    (access,) = child_spans(rec, bind)
    assert access["name"] == "access"

    children = {c["name"]: c for c in child_spans(rec, access)}
    assert set(children) == {"plan", "deploy"}

    (planner_plan,) = child_spans(rec, children["plan"])
    assert planner_plan["name"] == "planner.plan"
    assert planner_plan["attrs"]["algorithm"] == "dp_chain"
    (enumerate_span,) = child_spans(rec, planner_plan)
    assert enumerate_span["name"] == "planner.linkage.enumerate"

    installs = child_spans(rec, children["deploy"])
    assert installs and all(s["name"] == "install" for s in installs)
    install_nodes = {s["attrs"]["node"] for s in installs}
    assert node in install_nodes  # client-side units land on the client node

    # Every span carries both clocks.
    for span in rec.spans():
        assert span["wall_ms"] >= 0.0
        assert "sim_ms" in span, f"{span['name']} lacks a simulated duration"

    # Simulated time nests: children fit inside their parent's window.
    def window(s):
        return (s["sim_start_ms"], s["sim_start_ms"] + s["sim_ms"])

    lo, hi = window(root)
    for child in child_spans(rec, root):
        c_lo, c_hi = window(child)
        assert lo <= c_lo and c_hi <= hi


def test_connect_metrics(traced_run):
    obs, runtime, _node = traced_run
    counters = obs.metrics.snapshot()["counters"]
    connects = sum(
        v for k, v in counters.items() if k.startswith("smock.client_connects")
    )
    assert connects == 1
    assert counters["smock.lookups"] == 1
    assert counters["planner.plans_computed{algorithm=dp_chain}"] == 1
    assert counters["planner.linkage_graphs_enumerated"] >= 1
    assert counters["sim.events_dispatched"] > 0
    installs = sum(v for k, v in counters.items() if k.startswith("smock.installs"))
    assert installs == len(runtime.deployer.deployments[-1].new_instances)


def test_bind_record_agrees_with_spans(traced_run):
    obs, runtime, _node = traced_run
    record = runtime.bind_records[-1]
    root = obs.recorder.spans("client_connect")[0]
    assert root["attrs"]["total_ms"] == pytest.approx(record.total_ms)
    assert root["sim_ms"] == pytest.approx(record.total_ms)


def test_workload_produces_coherence_counters():
    from repro.services.mail import WorkloadConfig, mail_workload

    obs = Observability()
    with use_obs(obs):
        testbed = build_mail_testbed(clients_per_site=1, flush_policy="count:10")
        runtime = testbed.runtime
        proxies = []
        for site, user in [("sandiego", "Bob"), ("seattle", "Dave")]:
            node = testbed.client_nodes(site)[0]
            proxies.append(
                (user, runtime.run(runtime.client_connect(node, {"User": user}),
                                   f"connect:{user}"))
            )
        for user, proxy in proxies:
            peers = [u for u, _p in proxies if u != user]
            runtime.sim.process(
                mail_workload(proxy, WorkloadConfig(user=user, peers=peers,
                                                    n_sends=25, n_receives=5))
            )
        runtime.sim.run()

    counters = obs.metrics.snapshot()["counters"]
    assert counters["coherence.local_updates"] > 0
    invalidations = sum(
        v for k, v in counters.items() if k.startswith("coherence.invalidations")
    )
    assert invalidations > 0
    flushes = sum(
        v for k, v in counters.items() if k.startswith("coherence.flushes")
    )
    assert flushes > 0
    assert counters["coherence.conflict_map_hits"] > 0
    # The directory's own stats and the metrics registry must agree.
    stats = runtime.coherence.stats
    assert counters["coherence.local_updates"] == stats.local_updates
    assert invalidations == stats.invalidations


def test_request_spans_per_operation():
    obs = Observability()
    with use_obs(obs):
        testbed = build_mail_testbed(clients_per_site=1)
        runtime = testbed.runtime
        node = testbed.client_nodes("sandiego")[0]
        proxy = runtime.run(runtime.client_connect(node, {"User": "Bob"}), "c")
        runtime.run(
            proxy.request(
                "send_mail",
                {"recipient": "Dave", "sensitivity": 2, "body": "hi"},
            ),
            "send",
        )
    sends = obs.recorder.spans("request")
    assert any(s["attrs"]["op"] == "send_mail" for s in sends)
    hist = obs.metrics.snapshot()["histograms"]
    assert hist["smock.request_sim_ms{op=send_mail}"]["count"] == 1
