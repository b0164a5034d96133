"""Deterministic end-to-end chaos harness.

:func:`run_chaos_case` runs one seeded chaos experiment: build the
Figure 5 mail testbed, enable self-healing, bind one workload client
per site, inject the seed's generated fault schedule
(:func:`~repro.chaos.plangen.generate_fault_plan`), drive the run to
quiescence, perform a final anti-entropy sweep, and evaluate the
:mod:`~repro.chaos.invariants`.  Everything stochastic derives from the
seed, so the same seed reproduces the same run exactly — pinned by the
run *signature*, a hash over every externally observable outcome.

The lifecycle steps themselves are
:class:`~repro.experiments.mail_setup.MailTestbed` methods shared with
the other harnesses; this module owns what is chaos-specific, one named
phase per function.  The CLI's ``chaos-sweep`` maps
:func:`run_chaos_case` over many seeds and, with
``--check-determinism``, runs each seed twice and compares signatures.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..experiments.mail_setup import MailTestbed, build_mail_testbed
from ..experiments.topology_fig5 import SITE_TRUST, SITES
from ..faults import FaultKind, FaultPlan
from ..network import NetworkError
from ..obs import FlightRecorder, Observability, use_obs
from ..services.mail import DEFAULT_USERS, WorkloadConfig
from ..sim import FaultError
from ..smock import LookupError, RetryPolicy
from .invariants import check_all, check_directory_recovery, check_lookup_failover
from .plangen import generate_fault_plan

__all__ = [
    "ChaosCaseConfig",
    "ChaosCaseResult",
    "run_chaos_case",
]


@dataclass(frozen=True)
class ChaosCaseConfig:
    """Knobs of one chaos case (everything else derives from ``seed``)."""

    n_sends: int = 30
    n_receives: int = 5
    n_faults: int = 3
    horizon_ms: float = 60_000.0
    kinds: Optional[Sequence[str]] = None
    #: continuous-telemetry knob (None = no sampler; the sampler's tick
    #: events change the event count, so the signature is only
    #: comparable between runs with the same interval — which the
    #: sweep/determinism harness guarantees by sharing one config)
    telemetry_interval_ms: Optional[float] = None
    #: SLO spec evaluated after the run: "default", a spec-file path,
    #: or an inline mapping (see repro.obs.slo); None skips evaluation
    slo: Optional[Any] = None
    #: load x fault composite: offered open-loop background rate
    #: (req/s) over the fault horizon, multiplexed over the scripted
    #: clients' proxies; None keeps the case byte-identical to the
    #: load-free harness
    load_rate_per_s: Optional[float] = None
    #: arrival shape of the background load ("poisson" or "flash":
    #: a flash crowd peaking at 4x the base rate mid-horizon)
    load_arrival: str = "poisson"
    #: simulated-user roster size for the background load
    load_users: int = 1_000
    #: overload-protection switch passed through to the runtime;
    #: independent of load_rate_per_s so the composite can run both
    #: protected and unprotected
    overload_protection: bool = False
    #: autonomic-loop switch passed through to the runtime.  The
    #: manager shares the harness's self-healing replanner, so scale
    #: rounds and failover rounds interleave through one machinery; pair
    #: with load_rate_per_s for a load x fault x scale composite.  False
    #: keeps cases byte-identical to the autonomic-less harness.
    autonomic: bool = False
    #: control-plane chaos: additionally crash the *brain* — the lookup
    #: primary's host and the coherence-directory host — one scripted
    #: crash+restart each, in their own fault slots (see
    #: :func:`~repro.chaos.plangen.generate_fault_plan`).  Implies two
    #: lookup replicas on the San Diego / Seattle gateways, 15 s leases
    #: (long enough that one missed heartbeat plus one fault window
    #: cannot falsely expire a live service), and the directory journal
    #: on Seattle; schedules one re-lookup probe per site while the
    #: lookup primary is down and evaluates the lookup-failover and
    #: directory-recovery invariants.  ``False`` (default) keeps every
    #: case byte-identical to the control-plane-less harness.
    crash_control_plane: bool = False


@dataclass
class ChaosCaseResult:
    """Outcome of one seeded chaos run."""

    seed: int
    plan: List[str]
    violations: List[str]
    signature: str
    workload_errors: List[str]
    acked_sends: int
    attempted_sends: int
    finished: bool
    stats: Dict[str, Any] = field(default_factory=dict)
    #: flight-recorder ring (recent telemetry samples + fault/violation
    #: events), populated when config.telemetry_interval_ms is set
    flight: Optional[List[Dict[str, Any]]] = None
    flight_dropped: int = 0
    #: evaluated SLO report (dict form), populated when config.slo is set
    slo_report: Optional[Dict[str, Any]] = None
    #: background-load outcome counters, populated when
    #: config.load_rate_per_s is set (load x fault composite)
    load: Optional[Dict[str, Any]] = None
    #: control-plane outcome summary (lookups, failovers, reconnect
    #: probes, directory takeovers), populated when
    #: config.crash_control_plane is set
    control_plane: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.finished and not self.violations


def _signature(
    runtime: Any,
    results: List[Any],
    violations: List[str],
    load: Optional[Dict[str, Any]] = None,
    control_plane: Optional[Dict[str, Any]] = None,
) -> str:
    """Hash every externally observable outcome of the run.

    Message ids are process-global (a fresh run in the same process
    draws different ids), so mailbox contents enter the hash by
    *identity-free* shape: per-user sorted (sender, sensitivity,
    body-length) triples.
    """
    primary = runtime.instance_of("MailServer")
    inboxes = {
        user: sorted(
            (m.sender, m.sensitivity, len(m.body))
            for folder in primary.store.mailbox(user).folders.values()
            for m in folder
        )
        for user in primary.store.users()
    }
    st = runtime.coherence.stats
    transport = runtime.transport
    payload = {
        "now": runtime.sim.now,
        "events": runtime.sim.events_scheduled,
        "latencies": [
            (r.user, list(r.send_latency.samples), list(r.receive_latency.samples))
            for r in results
        ],
        "errors": [list(r.errors) for r in results],
        "inboxes": inboxes,
        "coherence": [
            st.local_updates, st.syncs, st.messages_propagated,
            st.invalidations, st.stale_reads, st.lost_updates,
            st.duplicates_rejected, st.degraded_reads, st.degraded_writes,
            st.recovered_updates, st.reconcile_conflicts,
        ],
        "transport": [
            transport.messages_sent, transport.bytes_sent,
            transport.messages_dropped, transport.messages_duplicated,
            transport.messages_corrupted, transport.messages_reordered,
        ],
        "violations": violations,
    }
    if load is not None:
        # Only composites carry this key, so load-free signatures stay
        # comparable with historical ones.
        payload["load"] = load
    if control_plane is not None:
        # Same discipline: only crash_control_plane runs carry this key.
        payload["control_plane"] = control_plane
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _reconnect_probe(
    runtime: Any,
    node: str,
    start_ms: float,
    deadline_ms: float,
    record: Dict[str, Any],
):
    """Re-lookup the mail service from ``node`` until it succeeds.

    Scheduled while the lookup primary's host is down: success means the
    client rebound through a surviving replica.  Each attempt races a
    2 s timeout; attempts retry every 500 ms until ``deadline_ms`` —
    a probe whose own site gateway is the crashed host stays cut off
    until the restart heals it, and must still get through before the
    deadline.
    """
    sim = runtime.sim
    if sim.now < start_ms:
        yield sim.timeout(start_ms - sim.now)
    attempts = 0
    while True:
        attempts += 1
        attempt = sim.process(
            runtime.lookup.lookup(node, name="mail"),
            name=f"cp-reconnect:{node}",
        )
        try:
            # any_of re-raises a failed child: a replica-host crash or a
            # severed path surfaces here as FaultError/NetworkError.
            yield sim.any_of([attempt, sim.timeout(2_000.0)])
        except (NetworkError, FaultError, LookupError):
            pass
        if attempt.triggered and not attempt.failed:
            record.update(ok=True, at_ms=sim.now, attempts=attempts)
            return
        if sim.now >= deadline_ms:
            error = (
                repr(attempt.value)
                if attempt.triggered and attempt.failed
                else "timed out"
            )
            record.update(
                ok=False, at_ms=sim.now, attempts=attempts, error=error
            )
            return
        yield sim.timeout(500.0)


#: quiet time after the horizon for detection/replanning to finish
GRACE_MS = 120_000.0
#: crash_control_plane moves the brain off the mail primary's host: lookup
#: replicas on the San Diego and Seattle gateways, directory on Seattle —
#: all crashable without touching newyork-ms, which the durability
#: invariants require to stay up
LOOKUP_HOSTS = ["sandiego-gw", "seattle-gw"]
DIRECTORY_HOST = "seattle-gw"


def _control_plane_placement() -> Dict[str, Any]:
    """Control-plane placement: the runtime options of a
    ``crash_control_plane`` case."""
    from ..smock import LeaseConfig

    return dict(
        lookup_hosts=LOOKUP_HOSTS,
        lookup_leases=LeaseConfig(duration_ms=15_000.0),
        directory_host=DIRECTORY_HOST,
    )


def _bind_clients(
    testbed: MailTestbed, seed: int, config: ChaosCaseConfig
) -> Tuple[List[Any], List[WorkloadConfig]]:
    """Bind: one scripted client per site, each retrying its way through
    outages; returns the proxies and their workload configs."""
    users = [DEFAULT_USERS[i % len(DEFAULT_USERS)] for i in range(len(SITES))]
    proxies, configs = [], []
    for site, user in zip(SITES, users):
        proxies.append(testbed.connect(
            testbed.client_nodes(site)[0], user,
            RetryPolicy(timeout_ms=3000.0, max_retries=15, seed=seed),
        ))
        configs.append(WorkloadConfig(
            user=user,
            peers=[u for u in users if u != user],
            n_sends=config.n_sends,
            n_receives=config.n_receives,
            cluster_size=10,
            max_sensitivity=SITE_TRUST[site],
            seed=seed,
        ))
    return proxies, configs


def _schedule_faults(
    testbed: MailTestbed, seed: int, config: ChaosCaseConfig
) -> Tuple[FaultPlan, List[Dict[str, Any]], Dict[str, Any], List[Any]]:
    """Schedule faults + probes: generate the seed's plan from *now*
    (binding is over) and inject it.

    Control-plane chaos also records each scripted crash window and
    launches one re-lookup probe per site shortly after the lookup
    primary dies — proving clients rebind through the survivor.  Returns
    ``(plan, reconnect records, outage windows, probe processes)``, the
    last three empty for a plain case.
    """
    runtime = testbed.runtime
    cp_hosts = (
        [LOOKUP_HOSTS[0], DIRECTORY_HOST] if config.crash_control_plane else []
    )
    plan = generate_fault_plan(
        seed,
        testbed.topology,
        t0=runtime.sim.now,
        horizon_ms=config.horizon_ms,
        n_faults=config.n_faults,
        kinds=config.kinds,
        control_plane_hosts=cp_hosts or None,
    )
    testbed.inject(plan)
    if not cp_hosts:
        return plan, [], {}, []
    outages = {
        host: tuple(
            next(
                a.at_ms for a in plan.sorted_actions()
                if a.kind == kind and a.node == host
            )
            for kind in (FaultKind.CRASH, FaultKind.RESTART)
        )
        for host in cp_hosts
    }
    probe_at = outages[LOOKUP_HOSTS[0]][0] + 1_500.0
    reconnects: List[Dict[str, Any]] = [
        {"site": site, "node": testbed.client_nodes(site)[0]} for site in SITES
    ]
    probes = [
        runtime.sim.process(
            _reconnect_probe(
                runtime, record["node"], probe_at, probe_at + 30_000.0, record
            ),
            name=f"cp-probe:{record['site']}",
        )
        for record in reconnects
    ]
    return plan, reconnects, outages, probes


def _start_background_load(
    config: ChaosCaseConfig, seed: int, proxies: List[Any], t0: float
) -> Any:
    """Background load (load x fault composite): pump seeded open-loop
    load over the scripted clients' proxies for the whole fault horizon.
    Off (``None``) unless ``load_rate_per_s`` is set, so plain chaos
    cases stay byte-identical."""
    if config.load_rate_per_s is None:
        return None
    from ..load import LoadConfig, OpenLoopDriver
    from ..services.mail.workload import open_loop_mail_ops
    from ..sim.arrivals import FlashCrowdProcess, PoissonProcess

    rate = config.load_rate_per_s
    if config.load_arrival == "flash":
        arrival = FlashCrowdProcess(
            rate, 4.0 * rate,
            at_ms=t0 + config.horizon_ms / 3.0,
            ramp_ms=2_000.0,
            hold_ms=config.horizon_ms / 6.0,
            decay_ms=3_000.0,
            seed=seed,
        )
    elif config.load_arrival == "poisson":
        arrival = PoissonProcess(rate, seed=seed)
    else:
        raise ValueError(f"unknown load_arrival {config.load_arrival!r}")
    driver = OpenLoopDriver(
        proxies,
        arrival,
        LoadConfig(
            duration_ms=config.horizon_ms,
            drain_ms=GRACE_MS,
            n_users=config.load_users,
            seed=seed,
        ),
        open_loop_mail_ops(),
    )
    driver.start()
    return driver


def _grade(
    runtime: Any,
    procs: List[Any],
    acked: int,
    attempted: int,
    reconnects: List[Dict[str, Any]],
    outages: Dict[str, Any],
) -> List[str]:
    """Grade: the invariants of a run whose workloads all finished (plus
    the two control-plane ones when ``outages`` were scripted), or why
    it did not get that far."""
    if all(p.triggered and not p.failed for p in procs):
        violations = check_all(runtime, runtime.replanner, acked, attempted)
        if outages:
            violations += check_lookup_failover(runtime, reconnects, outages)
            violations += check_directory_recovery(runtime, DIRECTORY_HOST)
        return violations
    violations = []
    for p in procs:
        if not p.triggered:
            violations.append(f"workload {p.name} never finished")
        elif p.failed:
            violations.append(f"workload {p.name} crashed: {p.value!r}")
    return violations


def _control_plane_summary(
    runtime: Any, reconnects: List[Dict[str, Any]]
) -> Dict[str, Any]:
    journal = runtime.coherence.journal
    return {
        "lookups": runtime.lookup.lookups,
        "failovers": runtime.lookup.failovers,
        "reregistrations": runtime.lookup.reregistrations,
        "reconnects": [
            [
                r["site"], r["node"], bool(r.get("ok")),
                r.get("at_ms"), r.get("attempts"),
            ]
            for r in reconnects
        ],
        "takeovers": [
            [
                t["time_ms"], t["crashed_host"], t["new_host"],
                t["report"].frontiers_rebuilt,
                len(t["report"].frontier_mismatches),
            ]
            for t in runtime.directory_takeovers
        ],
        "journal_records": len(journal) if journal is not None else 0,
        "journal_recoveries": journal.recoveries if journal is not None else 0,
    }


def _load_summary(load_driver: Any) -> Dict[str, Any]:
    lr = load_driver.result
    return {
        "offered": lr.offered,
        "completed": lr.completed,
        "ok": lr.ok,
        "timely": lr.timely,
        "failed": lr.failed,
        "unfinished": load_driver._inflight,
        "errors": dict(sorted(lr.errors.items())),
        "goodput_per_s": lr.goodput_per_s,
        "availability": lr.availability,
    }


def _stats(runtime: Any, proxies: List[Any]) -> Dict[str, Any]:
    st = runtime.coherence.stats
    stats = {
        "syncs": st.syncs,
        "lost_updates": st.lost_updates,
        "recovered_updates": st.recovered_updates,
        "duplicates_rejected": st.duplicates_rejected,
        "degraded_reads": st.degraded_reads,
        "degraded_writes": st.degraded_writes,
        "reconcile_conflicts": st.reconcile_conflicts,
        "retries": sum(p.retries for p in proxies),
    }
    if runtime.autonomic is not None:
        events = runtime.autonomic.events
        stats["autonomic_actions"] = len(events)
        stats["autonomic_installed"] = sum(len(e.installed) for e in events)
        stats["autonomic_retired"] = sum(len(e.retired) for e in events)
    return stats


def run_chaos_case(
    seed: int, config: Optional[ChaosCaseConfig] = None
) -> ChaosCaseResult:
    """Run one seeded chaos experiment end to end."""
    config = config or ChaosCaseConfig()
    obs = Observability(tracing=False, metrics=True)
    flight = FlightRecorder() if config.telemetry_interval_ms else None
    with use_obs(obs):
        testbed = build_mail_testbed(
            clients_per_site=2,
            flush_policy="count:200",
            telemetry_interval_ms=config.telemetry_interval_ms,
            flight=flight,
            overload_protection=config.overload_protection,
            autonomic=config.autonomic,
            **(_control_plane_placement() if config.crash_control_plane else {}),
        )
        runtime = testbed.runtime
        runtime.enable_self_healing()  # before the first bind: connect tracks
        proxies, workloads = _bind_clients(testbed, seed, config)
        t0 = runtime.sim.now
        plan, cp_reconnects, cp_outages, cp_probes = _schedule_faults(
            testbed, seed, config
        )
        procs = testbed.start_workloads(proxies, workloads, "chaos-wl:")
        load_driver = _start_background_load(config, seed, proxies, t0)

        # Drive: always advance past the whole fault horizon plus a 30 s
        # settle period, then keep going up to the grace deadline if a
        # workload is still retrying its way out.
        testbed.drive(
            lambda: all(p.triggered for p in procs + cp_probes)
            and (load_driver is None or load_driver.drained),
            deadline=t0 + config.horizon_ms + GRACE_MS,
            settle_until=t0 + config.horizon_ms + 30_000.0,
        )
        testbed.converge()

        finished = all(p.triggered and not p.failed for p in procs)
        results = [p.value for p in procs if p.triggered and not p.failed]
        errors = [e for r in results for e in r.errors]
        attempted = config.n_sends * len(procs)
        acked = attempted - sum(
            1 for e in errors if e.startswith("send[")
        ) - config.n_sends * (len(procs) - len(results))
        # Background-load sends also land in the primary store: widen
        # the durability bounds by what the load offered (upper) and
        # what it got acked (lower).
        if load_driver is not None:
            lr = load_driver.result
            attempted += lr.ops_offered.get("send_mail", 0)
            acked += lr.ops_ok.get("send_mail", 0)
        violations = _grade(
            runtime, procs, acked, attempted, cp_reconnects, cp_outages
        )
        if flight is not None:
            for violation in violations:
                flight.event("violation", runtime.sim.now, detail=violation)
        slo_report = None
        if config.slo is not None:
            slo_report = testbed.slo_report(config.slo).to_dict()

        cp_summary = None
        if config.crash_control_plane:
            cp_summary = _control_plane_summary(runtime, cp_reconnects)
        load_summary = None if load_driver is None else _load_summary(load_driver)
        return ChaosCaseResult(
            seed=seed,
            plan=plan.describe(),
            violations=violations,
            signature=_signature(
                runtime, results, violations,
                load=load_summary, control_plane=cp_summary,
            ),
            workload_errors=errors,
            acked_sends=acked,
            attempted_sends=attempted,
            finished=finished,
            stats=_stats(runtime, proxies),
            flight=flight.records() if flight is not None else None,
            flight_dropped=flight.dropped if flight is not None else 0,
            slo_report=slo_report,
            load=load_summary,
            control_plane=cp_summary,
        )

