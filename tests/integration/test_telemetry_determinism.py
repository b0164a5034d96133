"""Telemetry must be free when off and invisible to the workload when on.

The continuous-telemetry pipeline (sampler ticks, windowed histograms,
in-flight byte accounting) follows the same contract as every other
observability knob in this repository: the default configuration
(``telemetry_interval_ms=None``) does not construct it, and an enabled
sampler may add its own tick events to the schedule but must not
perturb anything the workload observes (latencies, traffic, coherence
outcomes).
"""

from __future__ import annotations

import time

import pytest

from repro.experiments.mail_setup import build_mail_testbed
from repro.obs import Observability, use_obs
from repro.services.mail import WorkloadConfig, mail_workload

N_SENDS = 40
N_RECEIVES = 5


def _run_mail(telemetry_interval_ms=None, metrics=False):
    obs = Observability(metrics=metrics)
    with use_obs(obs):
        testbed = build_mail_testbed(
            clients_per_site=1,
            telemetry_interval_ms=telemetry_interval_ms,
        )
        runtime = testbed.runtime
        proxy = runtime.run(
            runtime.client_connect("sandiego-client1", {"User": "Bob"})
        )
        cfg = WorkloadConfig(
            user="Bob", peers=["Alice"], n_sends=N_SENDS,
            n_receives=N_RECEIVES, cluster_size=10, max_sensitivity=3,
        )
        proc = runtime.sim.process(mail_workload(proxy, cfg), name="wl:Bob")
        runtime.sim.run()
        assert proc.triggered and not proc.failed
    return runtime, proc.value


def _full_signature(runtime, result):
    """Everything, including the clock and the event count."""
    transport = runtime.transport
    st = runtime.coherence.stats
    return (
        runtime.sim.now,
        runtime.sim._seq,
        tuple(result.send_latency.samples),
        tuple(result.receive_latency.samples),
        tuple(result.errors),
        transport.messages_sent,
        transport.bytes_sent,
        tuple(
            sorted((n, l.bytes_carried) for n, l in transport.links.items())
        ),
        (st.local_updates, st.syncs, st.messages_propagated, st.invalidations),
    )


def test_disabled_sampler_structural_zero_work():
    """The <1%-overhead guarantee, asserted structurally: with telemetry
    off no sampler exists and the transport keeps no in-flight
    accounting."""
    rt, _result = _run_mail(telemetry_interval_ms=None)
    assert rt.sampler is None
    assert rt.transport.link_inflight is None


def test_enabled_sampler_does_not_perturb_workload():
    """Sampler ticks add events (and extend the clock to the next
    interval boundary), but every workload-visible outcome is identical."""
    ref_rt, ref_result = _run_mail(telemetry_interval_ms=None)
    on_rt, on_result = _run_mail(telemetry_interval_ms=500.0, metrics=True)
    assert on_rt.sampler.ticks > 0
    inflight = [
        ts for ts in on_rt.sampler.all_series() if ts.name == "link.inflight_bytes"
    ]
    assert inflight and any(max(ts.values()) > 0 for ts in inflight)
    # Drop the clock/event-count fields (indices 0 and 1): those are the
    # documented cost of sampling.
    assert _full_signature(on_rt, on_result)[2:] == _full_signature(
        ref_rt, ref_result
    )[2:]


def test_enabled_sampler_collects_standard_series():
    rt, _result = _run_mail(telemetry_interval_ms=500.0, metrics=True)
    snapshot = rt.sampler.snapshot()
    names = {key.split("{")[0] for key in snapshot}
    assert {
        "node.cpu_queue_depth",
        "node.cpu_utilization",
        "link.utilization",
        "link.inflight_bytes",
        "coherence.dirty_units",
        "component.service_ms",
        "smock.retry_rate",
        "smock.timeout_rate",
        "failover.replan_rate",
        "smock.request_sim_ms.p50",
        "smock.request_sim_ms.p99",
        "smock.request_sim_ms.p999",
        "workload.op_sim_ms.p50",
    } <= names
    # Per-op request series actually carry data.
    send_p99 = [
        v for k, v in snapshot.items()
        if k.startswith("smock.request_sim_ms.p99{") and "send_mail" in k
    ]
    assert send_p99 and send_p99[0], "no windowed send_mail p99 samples"


def test_disabled_sampler_wall_clock_overhead_bounded():
    """Generous wall-clock companion to the structural guard: passing
    the off state, ``None``, must not be meaningfully slower than
    omitting the argument (bound far above noise; the structural
    assertions above are the real <1% guarantee)."""
    def timed(**kwargs):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            _run_mail(**kwargs)
            best = min(best, time.perf_counter() - t0)
        return best

    base = timed()
    disabled = timed(telemetry_interval_ms=None)
    assert disabled < base * 1.5 + 0.05, (
        f"disabled telemetry cost too much: {disabled:.3f}s vs {base:.3f}s"
    )
