"""Robustness benchmark: availability and MTTR under injected faults.

Crashes the gateway hosting the sandiego client's view chain mid-
workload, lets the recovery loop (heartbeat detection → reconcile →
failover replan → proxy rebind) repair the deployment, and reports the
availability the client observed plus the loop's latency decomposition:
detection lag, and crash-to-rebind recovery time (MTTR).

The control-plane cells at the bottom quantify the availability work
(see ARCHITECTURE.md "control-plane availability"): the client-visible
lookup-unavailability window with a singleton vs a replicated lookup
when the lookup host dies, and the directory takeover MTTR when the
journal-backed directory host dies.  The simulated numbers are
deterministic and pinned exactly in ``BENCH_failover.json``; wall time
is regression-guarded.  Refresh with
``REPRO_WRITE_BENCH_BASELINE=1 pytest benchmarks/bench_failover.py``.
"""

import pathlib
import time

import pytest

from conftest import check_or_record
from repro.experiments import build_mail_testbed
from repro.faults import FaultInjector, FaultPlan
from repro.network import NetworkError
from repro.sim import FaultError
from repro.obs import get_default_obs
from repro.services.mail import WorkloadConfig, mail_workload
from repro.smock import LookupError, LookupService, RetryPolicy

OUTAGE_MS = 19_000.0  # crash at +1 s, restart at +20 s

BASELINE_PATH = pathlib.Path(__file__).parent / "BENCH_failover.json"


def run_chaos(with_faults=True, n_sends=60, n_receives=5, **testbed_kwargs):
    # Telemetry on everywhere in this file: the zero-overhead pair below
    # compares two runs that both carry the sampler, so its tick events
    # cancel out of the signature.
    tb = build_mail_testbed(clients_per_site=2, flush_policy="count:500",
                            algorithm="dp_chain",
                            telemetry_interval_ms=500.0,
                            **testbed_kwargs)
    rt = tb.runtime
    retry = None
    if with_faults:
        rt.enable_self_healing(heartbeat_interval_ms=250.0, miss_threshold=3)
        retry = RetryPolicy(timeout_ms=3000.0, max_retries=15, seed=1)
    proxy = tb.connect("sandiego-client1", "Bob", retry)
    if with_faults:
        t0 = rt.sim.now
        injector = FaultInjector(rt, FaultPlan.parse(
            [f"crash:sandiego-gw@{t0 + 1000.0}",
             f"restart:sandiego-gw@{t0 + 1000.0 + OUTAGE_MS}"], seed=3))
        injector.schedule()

    cfg = WorkloadConfig(user="Bob", peers=["Alice"], n_sends=n_sends,
                         n_receives=n_receives, cluster_size=10,
                         max_sensitivity=3)
    proc = rt.sim.process(mail_workload(proxy, cfg), name="workload:Bob")
    rt.sim.run(until=rt.sim.now + 400_000.0)
    if with_faults:
        rt.failure_detector.stop()
        rt.monitor.stop()
    assert proc.triggered, "workload did not finish"
    if proc.failed:
        raise proc.value
    return rt, proxy, proc.value, cfg


def test_failover_availability_and_mttr(benchmark, report_lines):
    def run():
        return run_chaos(with_faults=True)

    rt, proxy, result, cfg = benchmark.pedantic(run, rounds=1, iterations=1)
    ops = cfg.n_sends + cfg.n_receives
    availability = (ops - len(result.errors)) / ops
    hist = get_default_obs().metrics.snapshot()["histograms"]
    detection = hist["faults.detection_ms"]
    recovery = hist["failover.recovery_ms"]
    assert recovery["count"] >= 1, "no recovery was ever completed"
    assert availability == 1.0, f"requests lost despite retry: {result.errors}"
    benchmark.extra_info["availability"] = availability
    benchmark.extra_info["detection_ms"] = detection["mean"]
    benchmark.extra_info["recovery_ms"] = recovery["mean"]
    report_lines.append(
        f"failover: {availability:.0%} availability through a "
        f"{OUTAGE_MS / 1000:.0f} s gateway outage; detection "
        f"{detection['mean']:.0f} sim ms, MTTR {recovery['mean']:.0f} sim ms "
        f"(crash → rebound proxy), {proxy.retries} retries, "
        f"{rt.coherence.stats.lost_updates} lost updates accounted"
    )

    # SLO verdict from the windowed telemetry the sampler collected.
    from repro.obs.slo import DEFAULT_MAIL_SLO, SLOSpec, evaluate_slo

    report = evaluate_slo(
        SLOSpec.from_dict(DEFAULT_MAIL_SLO), get_default_obs().metrics,
        coherence_stats=rt.coherence.stats,
    )
    assert report.rows, "SLO evaluation produced no objectives"
    assert any(row.windows > 0 for row in report.rows), (
        "no closed telemetry windows — sampler did not run"
    )
    benchmark.extra_info["slo_passed"] = report.passed
    verdict = "PASS" if report.passed else "FAIL"
    burns = [row.budget_burn for row in report.rows if row.budget_burn]
    report_lines.append(
        f"failover SLO [{report.spec_name}]: {verdict} across "
        f"{len(report.rows)} objectives, max error-budget burn "
        f"{max(burns) if burns else 0.0:.2f}"
    )


def test_no_faults_no_robustness_overhead(benchmark, report_lines):
    def run():
        return run_chaos(with_faults=False, n_sends=30, n_receives=3)

    rt, proxy, result, cfg = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.errors == []
    assert proxy.retries == 0 and proxy.timeouts == 0
    counters = get_default_obs().metrics.snapshot()["counters"]
    assert not any(k.startswith(("faults.", "failover.")) for k in counters)
    report_lines.append(
        "failover: with faults disabled the request path stays on the "
        "retry-free fast path (no detector, no retry state, no metrics)"
    )


def run_partition(n_sends=60, n_receives=5):
    """Cut San Diego off from both peer sites mid-workload, then heal.

    No host dies, so nothing is ever lost — the interesting numbers are
    how the isolated view keeps serving (degraded reads, buffered
    write-backs) and how fast the backlog drains once the links return.
    """
    tb = build_mail_testbed(clients_per_site=2, flush_policy="count:500",
                            algorithm="dp_chain")
    rt = tb.runtime
    rt.enable_self_healing(heartbeat_interval_ms=250.0, miss_threshold=3)
    proxy = tb.connect(
        "sandiego-client1", "Bob",
        RetryPolicy(timeout_ms=3000.0, max_retries=15, seed=1),
    )
    t0 = rt.sim.now
    specs = []
    for peer in ("newyork-gw", "seattle-gw"):
        specs.append(f"partition:sandiego-gw/{peer}@{t0 + 1000.0}")
        specs.append(f"heal:sandiego-gw/{peer}@{t0 + 1000.0 + OUTAGE_MS}")
    FaultInjector(rt, FaultPlan.parse(specs, seed=3)).schedule()

    cfg = WorkloadConfig(user="Bob", peers=["Alice"], n_sends=n_sends,
                         n_receives=n_receives, cluster_size=10,
                         max_sensitivity=3)
    proc = rt.sim.process(mail_workload(proxy, cfg), name="workload:Bob")
    rt.sim.run(until=rt.sim.now + 400_000.0)
    rt.failure_detector.stop()
    rt.monitor.stop()
    assert proc.triggered, "workload did not finish"
    if proc.failed:
        raise proc.value
    return rt, proxy, proc.value, cfg


def test_partition_availability_and_reconciliation(benchmark, report_lines):
    rt, proxy, result, cfg = benchmark.pedantic(
        lambda: run_partition(), rounds=1, iterations=1
    )
    ops = cfg.n_sends + cfg.n_receives
    availability = (ops - len(result.errors)) / ops
    st = rt.coherence.stats
    assert availability == 1.0, f"requests lost in the partition: {result.errors}"
    # The partition actually bit: the client retried its way across the
    # outage and/or the isolated view served from its local copy.
    assert proxy.retries > 0 or st.degraded_reads > 0
    assert st.lost_updates == 0, "a heal-only schedule must lose nothing"
    assert not rt.coherence.has_lost_buffers
    benchmark.extra_info["availability"] = availability
    benchmark.extra_info["degraded_reads"] = st.degraded_reads
    benchmark.extra_info["recovered_updates"] = st.recovered_updates
    benchmark.extra_info["duplicates_rejected"] = st.duplicates_rejected
    report_lines.append(
        f"partition: {availability:.0%} availability through a "
        f"{OUTAGE_MS / 1000:.0f} s site isolation; {st.degraded_reads} "
        f"degraded reads, {proxy.retries} retries, "
        f"{st.recovered_updates} updates recovered via anti-entropy, "
        f"{st.duplicates_rejected} duplicates rejected, "
        f"{st.lost_updates} lost"
    )


def _fault_free_signature(rt, result):
    """Everything a default-valued knob could perturb on a healthy run."""
    return (
        rt.sim.now,
        rt.sim._seq,
        rt.transport.messages_sent,
        rt.transport.bytes_sent,
        tuple(result.send_latency.samples),
        tuple(result.receive_latency.samples),
        tuple(result.errors),
        rt.coherence.stats.syncs,
        rt.coherence.stats.messages_propagated,
    )


# -- control-plane availability cells ---------------------------------------

def _lookup_unavailability_ms(lookup_hosts):
    """Crash the first lookup host mid-run and measure the window (sim
    ms from crash to first successful lookup) a Seattle client sees.

    Both cells run a leased :class:`LookupService` (a registry on a
    dead host must not answer — the lease machinery is what models
    that); only the host count differs.  The singleton is dark for the
    whole outage plus one renewal interval (its purged registry is
    re-created by the first post-restart heartbeat); a second replica
    bounds the window at one probe retry."""
    from repro.smock import LeaseConfig

    tb = build_mail_testbed(clients_per_site=2, flush_policy="count:500",
                            algorithm="dp_chain",
                            lookup_hosts=list(lookup_hosts),
                            lookup_leases=LeaseConfig(duration_ms=15_000.0))
    rt = tb.runtime
    sim = rt.sim
    # The client and the surviving replica are both in Seattle: the
    # probe path never transits the crashed San Diego gateway.
    client = tb.client_nodes("seattle")[0]
    rt.run(rt.lookup.lookup(client, name="mail"))  # warm: resolves fine
    t_crash = sim.now + 1_000.0
    FaultInjector(rt, FaultPlan.parse(
        [f"crash:{lookup_hosts[0]}@{t_crash}",
         f"restart:{lookup_hosts[0]}@{t_crash + OUTAGE_MS}"],
        seed=3)).schedule()

    recovered = {}

    def probe():
        yield sim.timeout(t_crash + 1.0 - sim.now)
        while True:
            attempt = sim.process(
                rt.lookup.lookup(client, name="mail"), name="unavail-probe"
            )
            try:
                yield sim.any_of([attempt, sim.timeout(2_000.0)])
            except (NetworkError, FaultError, LookupError):
                pass
            if attempt.triggered and not attempt.failed:
                recovered["at_ms"] = sim.now
                return
            yield sim.timeout(500.0)

    proc = sim.process(probe(), name="unavail-probe-loop")
    sim.run(until=t_crash + OUTAGE_MS + 30_000.0)
    rt.lookup.stop()
    assert proc.triggered and not proc.failed, "probe never recovered"
    return recovered["at_ms"] - t_crash


def _directory_takeover_mttr_ms():
    """Crash the journal-backed directory host and measure crash-to-
    takeover time (detection + replan round + journal rebuild)."""
    tb = build_mail_testbed(clients_per_site=2, flush_policy="count:500",
                            algorithm="dp_chain",
                            directory_journal=True,
                            directory_host="seattle-gw")
    rt = tb.runtime
    rt.enable_self_healing(heartbeat_interval_ms=250.0, miss_threshold=3)
    sim = rt.sim
    t_crash = sim.now + 1_000.0
    FaultInjector(rt, FaultPlan.parse(
        [f"crash:seattle-gw@{t_crash}",
         f"restart:seattle-gw@{t_crash + OUTAGE_MS}"], seed=3)).schedule()
    sim.run(until=t_crash + 60_000.0)
    rt.failure_detector.stop()
    rt.monitor.stop()
    assert rt.directory_takeovers, "directory host died but nobody took over"
    takeover = rt.directory_takeovers[0]
    assert takeover["crashed_host"] == "seattle-gw"
    assert takeover["report"].consistent, takeover["report"].frontier_mismatches
    return takeover["time_ms"] - t_crash, takeover


def test_lookup_failover_window_and_directory_mttr(benchmark, report_lines):
    """The headline control-plane cell: replicating the lookup turns a
    ~20 s outage-long dark window into a sub-second failover, and the
    journal-backed directory recovers within the detection budget."""

    def run():
        t0 = time.perf_counter()
        singleton_ms = _lookup_unavailability_ms(["sandiego-gw"])
        replicated_ms = _lookup_unavailability_ms(
            ["sandiego-gw", "seattle-gw"]
        )
        mttr_ms, takeover = _directory_takeover_mttr_ms()
        return {
            "wall_s": round(time.perf_counter() - t0, 4),
            "singleton_unavailable_ms": round(singleton_ms, 3),
            "replicated_unavailable_ms": round(replicated_ms, 3),
            "directory_mttr_ms": round(mttr_ms, 3),
            "directory_new_host": takeover["new_host"],
        }

    measured = benchmark.pedantic(run, rounds=1, iterations=1)
    # Physics, machine-independent: the singleton is dark for at least
    # the outage; the replica bounds the window at ~one probe cycle; the
    # takeover completes within the detection + replan budget.
    assert measured["singleton_unavailable_ms"] >= OUTAGE_MS
    assert measured["replicated_unavailable_ms"] < 3_000.0
    assert measured["directory_mttr_ms"] < 10_000.0
    assert measured["directory_new_host"] != "seattle-gw"
    check_or_record(BASELINE_PATH, "control_plane", measured, exact=True)
    benchmark.extra_info.update(measured)
    report_lines.append(
        f"control plane: lookup dark window {OUTAGE_MS / 1000:.0f} s outage "
        f"= {measured['singleton_unavailable_ms'] / 1000:.1f} s singleton vs "
        f"{measured['replicated_unavailable_ms'] / 1000:.2f} s with one "
        f"replica; directory takeover MTTR "
        f"{measured['directory_mttr_ms'] / 1000:.2f} s "
        f"(-> {measured['directory_new_host']})"
    )


def test_control_plane_knobs_zero_overhead_when_default(benchmark,
                                                        report_lines):
    """Explicit default knobs (leases off, journal off) are
    byte-identical to omitting them, and resolve to the one-host
    ``LookupService`` with no lease loop — the structural zero-overhead
    pin."""
    def run_pair():
        bare = run_chaos(with_faults=False, n_sends=30, n_receives=3)
        knobbed = run_chaos(with_faults=False, n_sends=30, n_receives=3,
                            lookup_leases=False, directory_journal=False)
        return bare, knobbed

    (bare, knobbed) = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    sig_bare = _fault_free_signature(bare[0], bare[2])
    sig_knobbed = _fault_free_signature(knobbed[0], knobbed[2])
    assert sig_bare == sig_knobbed, "default control-plane knobs leak events"
    lookup = knobbed[0].lookup
    assert type(lookup) is LookupService
    assert len(lookup.replicas) == 1 and lookup.lease_config is None
    # nothing stopped it, so no lease loop was ever spawned
    assert lookup._running is None
    assert knobbed[0].coherence.journal is None
    report_lines.append(
        "control plane: default knobs are byte-identical to their absence "
        f"(one-host LookupService, no lease loop, no journal; {sig_bare[1]} "
        "events either way)"
    )
