"""Every observer the hot path can carry leaves one signature.

The kernel, the transport and the proxy each have one path, with the
observers as conditionals inside it — ``sim.dispatch`` capture, the
event counter, request spans and per-op histograms, a fault hook ruling
on every hop, a telemetry sampler keeping in-flight bytes — and promise
*bit-identical simulated results* whichever of them are attached.
These tests pin that promise on the full mail scenario (DS500,
3 clients x 120 sends): same event schedule length, same simulated
clock, same per-send latencies to the last ulp, same transport,
per-link and coherence counters.

``golden/ds500_signature.json`` was recorded at the last commit that
still had a constructor knob per hot path (kernel, transport, proxy,
coherence fan-out) and a crypto-cache toggle, with **all of them off**
(and checked equal to all of them on) — so it is the output of the
original slow paths, none of which this tree still has.  Regenerate
(only when a simulated result is *meant* to change) with
``PYTHONPATH=src python tests/integration/test_fast_path_determinism.py``.

``golden/ds500_reads_signature.json`` pins the *read* path the same way
(3 clients x 60 sends + 60 receives, the workload's default 20% remote
probes, so view hits, miss-path merges of messages the primary really
holds, and relayed fetch responses all run).
It was recorded at commit ``a4770c4``, before the mailbox id index
replaced the per-message id-set rebuild, and while the relay still
pickled and encrypted its payload.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.mail_setup import build_mail_testbed
from repro.experiments.scenarios_fig7 import _bind_clients, SCENARIOS
from repro.experiments.topology_fig5 import SITE_TRUST
from repro.faults import FaultInjector, FaultPlan
from repro.obs import Observability, TelemetrySampler
from repro.services.mail import WorkloadConfig, mail_workload

GOLDEN = Path(__file__).parent / "golden" / "ds500_signature.json"
READS_GOLDEN = Path(__file__).parent / "golden" / "ds500_reads_signature.json"

N_CLIENTS = 3
N_SENDS = 120  # x cluster_size 10 = 3600 units: crosses the count:500 policy
#: the read-heavy shape.  60 sends, not fewer: a replica must cross
#: count:500 (at its 50th send) or the primary stays empty and every
#: miss-path merge merges nothing.
READS = dict(n_sends=60, n_receives=60)

#: a chaos schedule over the San Diego leg: delay windows during the
#: steady state (drops would hang workload sends forever — the scenario
#: runs without a retry policy — so delays exercise the fault hook while
#: keeping the run comparable).
CHAOS = [
    "delay:sandiego-gw/newyork-gw:40@3000-20000",
    "delay:sandiego-client1/sandiego-gw:15@5000-25000",
]


def _run(
    scenario_name: str,
    fault_specs=None,
    n_sends: int = N_SENDS,
    n_receives: int = 5,
    telemetry: bool = False,
    **testbed_kwargs,
):
    """One DS-style scenario run; returns ``(runtime, proxies, procs)``.

    ``telemetry`` attaches a sampler without starting it: deliveries
    keep in-flight bytes, and no tick event joins the schedule (a
    started sampler's ticks are counted in ``events_scheduled``).
    """
    scenario = SCENARIOS[scenario_name]
    testbed = build_mail_testbed(
        flush_policy=scenario.flush_policy, **testbed_kwargs
    )
    runtime = testbed.runtime
    if telemetry:
        TelemetrySampler(runtime.sim).attach_runtime(runtime)
    if fault_specs:
        FaultInjector(runtime, FaultPlan.parse(fault_specs, seed=7)).schedule()
    proxies = _bind_clients(testbed, scenario, N_CLIENTS)
    users = [p.user for p in proxies]
    site_trust = SITE_TRUST[scenario.site]
    procs = []
    for i, proxy in enumerate(proxies):
        cfg = WorkloadConfig(
            user=users[i],
            peers=[u for u in users if u != users[i]] or [users[i]],
            n_sends=n_sends,
            n_receives=n_receives,
            max_sensitivity=site_trust,
            seed=i,
        )
        procs.append(
            runtime.sim.process(mail_workload(proxy, cfg), name=f"wl:{users[i]}")
        )
    runtime.sim.run()
    for proc in procs:
        assert not proc.failed, proc.value
    return runtime, proxies, procs


def _run_mail(scenario_name: str, fault_specs=None, **run_kwargs):
    """One DS-style scenario run, returning a full determinism signature."""
    runtime, _proxies, procs = _run(scenario_name, fault_specs, **run_kwargs)
    return _signature(runtime, procs)


def _signature(runtime, procs):
    """Everything a hot-path bug could perturb, captured exactly."""
    sim = runtime.sim
    transport = runtime.transport
    st = runtime.coherence.stats
    return {
        "now": sim.now,
        "events_scheduled": sim.events_scheduled,
        "send_latencies": tuple(
            tuple(p.value.send_latency.samples) for p in procs
        ),
        "receive_latencies": tuple(
            tuple(p.value.receive_latency.samples) for p in procs
        ),
        "errors": tuple(tuple(p.value.errors) for p in procs),
        "messages_sent": transport.messages_sent,
        "bytes_sent": transport.bytes_sent,
        "messages_dropped": transport.messages_dropped,
        "transport_samples": tuple(transport.stats.samples),
        "link_bytes": tuple(
            sorted((name, link.bytes_carried) for name, link in transport.links.items())
        ),
        "coherence": (
            st.local_updates, st.buffered_units, st.syncs,
            st.messages_propagated, st.bytes_propagated, st.invalidations,
            st.conflict_map_hits, st.stale_reads, st.lost_updates,
        ),
    }


def _as_json(signature):
    """Tuples become lists; floats survive ``repr`` round-trips exactly."""
    return json.loads(json.dumps(signature))


def _golden(key: str, path: Path = GOLDEN):
    return json.loads(path.read_text())[key]


#: who is watching -> the Observability that attaches them
CONDITIONS = {
    # nothing observes
    "default": None,
    # event counter + per-op histograms
    "metrics": dict(tracing=False, metrics=True),
    # sim.dispatch capture + request spans
    "tracing": dict(tracing=True, metrics=False, capture_sim_events=True),
}


@pytest.mark.parametrize("condition", sorted(CONDITIONS))
def test_selected_paths_match_golden(condition):
    obs_kwargs = CONDITIONS[condition]
    obs = Observability(**obs_kwargs) if obs_kwargs else None
    runtime, _proxies, procs = _run("DS500", obs=obs)
    assert runtime.transport.fault_hook is None
    if condition == "tracing":
        assert obs.recorder.events("sim.dispatch")
        assert obs.recorder.spans("request")
    assert _as_json(_signature(runtime, procs)) == _golden("plain")


def test_chaos_run_matches_golden():
    """An installed fault hook rules on every hop of every delivery;
    the delays change the run, so it has its own golden."""
    runtime, _proxies, procs = _run("DS500", fault_specs=CHAOS)
    assert runtime.transport.fault_hook is not None
    signature = _as_json(_signature(runtime, procs))
    assert signature == _golden("chaos")
    assert signature != _golden("plain")


def test_chaos_run_with_telemetry_matches_golden():
    """Fault hook *and* in-flight accounting on the same walk: the
    accounting is arithmetic between the same yields, so the chaos
    golden holds, and every byte that entered a link has left it once
    the event list has drained."""
    runtime, _proxies, procs = _run("DS500", fault_specs=CHAOS, telemetry=True)
    transport = runtime.transport
    assert transport.fault_hook is not None
    assert transport.link_inflight  # links were accounted ...
    assert set(transport.link_inflight.values()) == {0}  # ... and emptied
    assert _as_json(_signature(runtime, procs)) == _golden("chaos")


@pytest.mark.parametrize("arm, fault_specs", [("plain", None), ("chaos", CHAOS)])
def test_read_path_matches_golden(arm, fault_specs):
    """60 receives per client: view hits, miss-path merges into the
    view's store, and fetch responses sealed across the relay."""
    signature = _as_json(_run_mail("DS500", fault_specs=fault_specs, **READS))
    assert all(len(r) == READS["n_receives"] for r in signature["receive_latencies"])
    assert signature == _golden(arm, READS_GOLDEN)


if __name__ == "__main__":
    for path, run_kwargs in ((GOLDEN, {}), (READS_GOLDEN, READS)):
        path.write_text(
            json.dumps(
                {
                    "plain": _run_mail("DS500", **run_kwargs),
                    "chaos": _run_mail("DS500", fault_specs=CHAOS, **run_kwargs),
                },
                indent=1,
            )
            + "\n"
        )
        print(f"wrote {path}")
