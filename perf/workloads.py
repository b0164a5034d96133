"""The seven benchmark workloads.

Each workload is three functions the harness times separately:

- ``setup(seed, scale, spans)`` builds the inputs and the testbed (and
  binds the clients when binding is not the measured work) and returns a
  state object — the rep's *set-up*;
- ``drive(state, spans)`` is the *measured phase*; it may return
  ``{"measured_s": ..., ...}`` when only part of it is the headline
  time (``site_traffic`` times a sequential and a parallel arm);
- ``collect(state)`` reads results and public stats into an
  :class:`Outcome` and runs the correctness checks.

Everything goes through the program's public functions; the program
sees only inputs generated here from ``seed``.  ``scale`` divides the
sizes (``--quick`` passes 10); the recorded numbers all use ``scale=1``.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.chaos import ChaosCaseConfig, run_chaos_case
from repro.experiments import (
    EXPECTED_CHAINS,
    SCENARIOS,
    SITE_TRUST,
    SITES,
    build_fig5_network,
    build_mail_testbed,
    run_scenario,
    site_chain,
)
from repro.load import LoadConfig, run_load_cell
from repro.load.roster import generate_roster
from repro.services.mail import DEFAULT_USERS, WorkloadConfig, mail_workload
from repro.sim.arrivals import FlashCrowdProcess
from repro.sim.parallel import (
    TrafficConfig,
    partition_network,
    run_parallel,
    site_traffic_program,
)

__all__ = ["Outcome", "Workload", "WORKLOADS", "PARALLEL_WORKERS"]

#: the only worker processes the benchmark ever starts (``site_traffic``)
PARALLEL_WORKERS = min(3, os.cpu_count() or 1)

#: refusals are the overload layer's designed answer to a 5x flash crowd:
#: they miss the deadline (so ``sim_goodput_per_s`` pays for them) but are
#: not failed operations
REFUSALS = ("shed", "throttled", "circuit_open")


@dataclass
class Outcome:
    """What one rep produced, in simulated terms and exact counts."""

    ops: int
    attempted: int
    failed: int
    signature: str
    #: simulated statistics (``sim_*`` and ``refused_ops_share``)
    sim: Dict[str, float] = field(default_factory=dict)
    #: exact per-layer counts read from public result/stats objects
    counts: Dict[str, float] = field(default_factory=dict)
    #: host seconds of each ``client_connect`` the benchmark made itself
    bind_host_s: List[float] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    op: str  #: what one "op" is in ``cal_ops_per_s``
    reps: int  #: default measured reps of a suite run
    setup: Callable[[int, int, Any], Any]
    drive: Callable[[Any, Any], Optional[Dict[str, float]]]
    collect: Callable[[Any], Outcome]
    #: extra check run once, on the first full rep: state -> problems
    verify_once: Optional[Callable[[Any], List[str]]] = None


def _digest(payload: Any) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def _percentile(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an already sorted sample (the same
    rule as ``repro.sim.resources.Monitor.percentile``)."""
    return ordered[min(len(ordered) - 1, max(0, round(p / 100.0 * (len(ordered) - 1))))]


def _latency_stats(samples: Sequence[float]) -> Dict[str, float]:
    ordered = sorted(samples)
    return {
        "sim_latency_mean_ms": sum(samples) / len(samples),
        "sim_latency_p50_ms": _percentile(ordered, 50),
        "sim_latency_p99_ms": _percentile(ordered, 99),
        "sim_latency_samples": len(samples),
    }


def _connect(runtime: Any, node: str, user: str, spans: Any, host_s: List[float]) -> Any:
    """One dynamic bind (lookup -> plan -> deploy), host-timed."""
    with spans.span("bind"):
        t0 = perf_counter()
        proxy = runtime.run(runtime.client_connect(node, {"User": user}), f"connect:{user}")
        host_s.append(perf_counter() - t0)
    return proxy


def _runtime_counts(runtime: Any, proxies: Sequence[Any], events: int) -> Dict[str, float]:
    st = runtime.coherence.stats
    cache = runtime.planner.plan_cache
    lookups = cache.stats.hits + cache.stats.misses if cache is not None else 0
    return {
        "sim.events": events,
        "smock.transport.messages": runtime.transport.messages_sent,
        "smock.transport.bytes": runtime.transport.bytes_sent,
        "smock.proxy.requests": sum(p.requests for p in proxies),
        "smock.proxy.retries": sum(p.retries for p in proxies),
        "smock.proxy.timeouts": sum(p.timeouts for p in proxies),
        "coherence.local_updates": st.local_updates,
        "coherence.syncs": st.syncs,
        "coherence.invalidations": st.invalidations,
        "coherence.messages_propagated": st.messages_propagated,
        "coherence.stale_reads": st.stale_reads,
        "coherence.conflict_hit_ratio": (
            st.conflict_map_hits / st.local_updates if st.local_updates else 0.0
        ),
        "coherence.lost_updates": st.lost_updates,
        "coherence.recovered_updates": st.recovered_updates,
        "planner.cache_hit_ratio": cache.stats.hits / lookups if lookups else 0.0,
        "smock.runtime.binds": len(runtime.bind_records),
    }


def _sim_bind_ms(runtime: Any) -> float:
    records = runtime.bind_records
    return sum(r.total_ms for r in records) / len(records) if records else 0.0


# -- 1-3: the deployed mail chain (Figure 7 cells, decomposed) ------------------


@dataclass
class _MailState:
    seed: int
    n_sends: int
    n_receives: int
    testbed: Any
    proxies: List[Any]
    configs: List[WorkloadConfig]
    bind_host_s: List[float]
    procs: List[Any] = field(default_factory=list)
    events_before: int = 0
    sim_before_ms: float = 0.0


def _mail_workload(scenario: str, n_clients: int, n_sends: int, n_receives: int):
    """``run_scenario`` taken apart so set-up, binds and the send/receive
    loop are timed separately; same calls, same order, same seeds."""
    scen = SCENARIOS[scenario]

    def setup(seed: int, scale: int, spans: Any) -> _MailState:
        users = generate_roster(n_clients)
        testbed = build_mail_testbed(
            clients_per_site=5, flush_policy=scen.flush_policy, users=list(DEFAULT_USERS)
        )
        nodes = testbed.client_nodes(scen.site)[:n_clients]
        bind_host_s: List[float] = []
        proxies = [
            _connect(testbed.runtime, node, user, spans, bind_host_s)
            for node, user in zip(nodes, users)
        ]
        sends, receives = n_sends // scale, n_receives // scale
        configs = [
            WorkloadConfig(
                user=user,
                peers=[u for u in users if u != user] or [user],
                n_sends=sends,
                n_receives=receives,
                cluster_size=10,
                max_sensitivity=SITE_TRUST[scen.site],
                seed=seed + i,
            )
            for i, user in enumerate(users)
        ]
        return _MailState(seed, sends, receives, testbed, proxies, configs, bind_host_s)

    def drive(state: _MailState, spans: Any) -> None:
        sim = state.testbed.sim
        state.events_before, state.sim_before_ms = sim._seq, sim.now
        state.procs = [
            sim.process(mail_workload(proxy, cfg), name=f"wl:{cfg.user}")
            for proxy, cfg in zip(state.proxies, state.configs)
        ]
        sim.run()

    def collect(state: _MailState) -> Outcome:
        runtime = state.testbed.runtime
        sim = runtime.sim
        sends: List[float] = []
        receives: List[float] = []
        errors: List[str] = []
        for proc in state.procs:
            if proc.failed:
                raise proc.value
            sends.extend(proc.value.send_latency.samples)
            receives.extend(proc.value.receive_latency.samples)
            errors.extend(proc.value.errors)
        ops = len(state.configs) * (state.n_sends + state.n_receives)
        answered = len(sends) + len(receives)
        drive_sim_s = (sim.now - state.sim_before_ms) / 1e3
        counts = _runtime_counts(runtime, state.proxies, sim._seq - state.events_before)
        problems = [f"workload error: {e}" for e in errors[:5]]
        if answered != ops:
            problems.append(f"{answered} of {ops} ops answered")
        if scen.flush_policy != "never" and state.n_sends >= 500 and not counts["coherence.syncs"]:
            problems.append("flush policy never synced")
        return Outcome(
            ops=ops,
            attempted=ops,
            failed=len(errors) + (ops - answered),
            signature=_digest(
                (sim.now, sim._seq, sends, receives, sorted(counts.items()))
            ),
            sim={
                **_latency_stats(sends + receives),
                "sim_goodput_per_s": (answered - len(errors)) / drive_sim_s,
                "sim_bind_ms": _sim_bind_ms(runtime),
            },
            counts=counts,
            bind_host_s=state.bind_host_s,
            problems=problems,
        )

    def matches_run_scenario(state: _MailState) -> List[str]:
        sends = [x for proc in state.procs for x in proc.value.send_latency.samples]
        ours = sum(sends) / len(sends)
        reference = run_scenario(
            scenario,
            n_clients,
            n_sends=state.n_sends,
            n_receives=state.n_receives,
            seed=state.seed,
        ).mean_send_ms
        if reference == ours:
            return []
        return [f"decomposed driver mean_send_ms {ours!r} != run_scenario's {reference!r}"]

    return setup, drive, collect, matches_run_scenario


# -- 4: thirty dynamic binds ------------------------------------------------------


@dataclass
class _BindState:
    testbed: Any
    order: List[tuple]  #: (site, node, user) in bind order
    expected_binds: int
    bind_host_s: List[float] = field(default_factory=list)
    proxies: List[Any] = field(default_factory=list)
    events_before: int = 0


#: overridden by ``run.py --expect-binds`` so the smoke test can show a
#: violated check fails the run
EXPECTED_BINDS: Optional[int] = None


def _bind_setup(seed: int, scale: int, spans: Any) -> _BindState:
    per_site = max(1, 10 // scale)
    testbed = build_mail_testbed(clients_per_site=per_site)
    rng = random.Random(f"bind_storm:{seed}")
    order = []
    # New York first, Seattle last: Seattle's chain reuses the view San
    # Diego's binds installed, as in Figure 6.
    for site in SITES:
        nodes = list(testbed.client_nodes(site))
        rng.shuffle(nodes)
        order += [(site, node, rng.choice(DEFAULT_USERS)) for node in nodes]
    expected = EXPECTED_BINDS if EXPECTED_BINDS is not None else 3 * per_site
    return _BindState(testbed, order, expected)


def _bind_drive(state: _BindState, spans: Any) -> None:
    runtime = state.testbed.runtime
    state.events_before = runtime.sim._seq
    for _site, node, user in state.order:
        state.proxies.append(_connect(runtime, node, user, spans, state.bind_host_s))


def _bind_collect(state: _BindState) -> Outcome:
    runtime = state.testbed.runtime
    topology = state.testbed.topology
    accesses = runtime.generic_server.accesses
    problems = []
    if len(state.proxies) != state.expected_binds:
        problems.append(f"{len(state.proxies)} proxies bound, expected {state.expected_binds}")
    chains = []
    seen_sites = set()
    for (site, node, _user), access in zip(state.order, accesses):
        chain = site_chain(topology, access.plan)
        chains.append((node, chain))
        expected = EXPECTED_CHAINS[site]
        if site not in seen_sites:
            # a site's first bind deploys Figure 6's chain ...
            seen_sites.add(site)
            fits = chain == expected
        else:
            # ... and every later one links into a component of it
            fits = access.plan.chain_from_root()[-1].reused and {u for u, _ in chain} <= {
                u for u, _ in expected
            }
        if not fits:
            problems.append(f"{node}: deployed chain {chain} does not fit Figure 6's {expected}")
    binds = len(state.proxies)
    sim = runtime.sim
    return Outcome(
        ops=binds,
        attempted=len(state.order),
        failed=len(state.order) - binds,
        signature=_digest((sim.now, sim._seq, chains, [r.total_ms for r in runtime.bind_records])),
        sim={
            "sim_bind_ms": _sim_bind_ms(runtime),
            "sim_goodput_per_s": binds / (sim.now / 1e3),
        },
        counts=_runtime_counts(runtime, state.proxies, sim._seq - state.events_before),
        bind_host_s=state.bind_host_s,
        problems=problems,
    )


# -- 5: the flash-crowd cell with protection and the autonomic loop ----------------


@dataclass
class _FlashState:
    arrival: FlashCrowdProcess
    config: LoadConfig
    full_size: bool
    result: Any = None


#: The arrival trace is one fixed draw: another trace tips the autonomic
#: loop into one scale round more or fewer, each a ~200 ms planner call,
#: which moves host time by 15% for reasons that are not the code under
#: test.  ``--seed`` draws the users, the op mix and the retry jitter.
FLASH_TRACE_SEED = 7


def _flash_setup(seed: int, scale: int, spans: Any) -> _FlashState:
    # run_flash_crowd_pair's defaults: 70 -> 600 req/s over a ~110 req/s
    # knee, inside a 30 s offered window, 10 000-user Zipf roster.
    arrival = FlashCrowdProcess(
        70.0,
        600.0,
        at_ms=5_000.0 / scale,
        ramp_ms=2_000.0 / scale,
        hold_ms=12_000.0 / scale,
        decay_ms=3_000.0 / scale,
        seed=FLASH_TRACE_SEED,
    )
    return _FlashState(arrival, LoadConfig(duration_ms=30_000.0 / scale, seed=seed), scale == 1)


def _flash_drive(state: _FlashState, spans: Any) -> None:
    state.result = run_load_cell(
        state.arrival,
        config=state.config,
        protection=True,
        autonomic=True,
        label="flash-autonomic",
    )


def _flash_collect(state: _FlashState) -> Outcome:
    cell = state.result
    auto = cell.autonomic
    refused = sum(cell.errors.get(kind, 0) for kind in REFUSALS)
    problems = []
    if auto["lost_updates"]:
        problems.append(f"{auto['lost_updates']} acked updates lost")
    if auto["convergence_violations"]:
        problems.append(f"convergence violated: {auto['convergence_violations'][:2]}")
    if state.full_size and auto["scale_out_at_ms"] is None:
        problems.append("the flash crowd never triggered a scale-out")
    if cell.offered != cell.completed + cell.unfinished:
        problems.append(
            f"offered {cell.offered} != completed {cell.completed} + unfinished {cell.unfinished}"
        )
    overload = cell.overload or {}
    return Outcome(
        ops=cell.offered,
        attempted=cell.offered,
        failed=cell.offered - cell.ok - refused,
        signature=cell.signature,
        sim={
            # LoadCellResult carries percentiles of ok requests, not the
            # samples, so there is no mean here.
            "sim_latency_p50_ms": cell.p50_ms,
            "sim_latency_p99_ms": cell.p99_ms,
            "sim_latency_samples": cell.ok,
            "sim_goodput_per_s": cell.timely_goodput_per_s,
            "refused_ops_share": refused / cell.offered,
        },
        counts={
            "sim.events": cell.events,
            "smock.proxy.retries": cell.retries,
            "smock.proxy.timeouts": cell.timeouts,
            "smock.overload.shed": overload.get("shed", 0),
            "smock.overload.throttled": overload.get("throttled", 0),
            "coherence.lost_updates": auto["lost_updates"],
            "load.offered": cell.offered,
            "load.ok": cell.ok,
            "load.timely": cell.timely,
            "load.unfinished": cell.unfinished,
            # arrivals are events on the simulated clock: the generator
            # cannot run late
            "load.lag_ms": 0.0,
            "autonomic.signals": auto["signals"],
            "autonomic.actions": len(auto["events"]),
            "autonomic.installed": auto["installed"],
            "autonomic.retired": auto["retired"],
        },
        problems=problems,
    )


# -- 6: chaos cases -------------------------------------------------------------------


@dataclass
class _ChaosState:
    cases: List[tuple]  #: (seed, config)
    results: List[Any] = field(default_factory=list)


#: Chaos cases differ 8x in host cost (0.10-0.83 s) and about 3% of
#: seeds violate an invariant at this commit (see README, Findings), so a
#: seed-dependent choice of cases would swing the total by more than any
#: bound and sometimes fail.  The cases are therefore fixed and all
#: passing, and ``--seed`` only decides the order they run in.  Eight of
#: them, not the issue's twelve: three reps plus warm-up of twelve do not
#: fit the time one benchmark run is allowed.
CHAOS_SEEDS = tuple(range(7, 15))


def _chaos_setup(seed: int, scale: int, spans: Any) -> _ChaosState:
    seeds = list(CHAOS_SEEDS[: max(2, len(CHAOS_SEEDS) // scale)])
    random.Random(f"chaos_faults:{seed}").shuffle(seeds)
    # even seeds run the default case, odd ones also crash the control plane
    return _ChaosState([(s, ChaosCaseConfig(crash_control_plane=bool(s % 2))) for s in seeds])


def _chaos_drive(state: _ChaosState, spans: Any) -> None:
    state.results = [run_chaos_case(s, config) for s, config in state.cases]


def _chaos_collect(state: _ChaosState) -> Outcome:
    results = state.results
    bad = [r for r in results if not r.ok]

    def stat(key: str) -> int:
        return sum(r.stats.get(key, 0) for r in results)

    attempted_sends = sum(r.attempted_sends for r in results)
    acked_sends = sum(r.acked_sends for r in results)
    return Outcome(
        ops=len(results),
        attempted=len(results),
        failed=len(bad),
        signature=_digest(sorted(r.signature for r in results)),
        sim={"refused_ops_share": 1.0 - acked_sends / attempted_sends},
        counts={
            "chaos.cases": len(results),
            "chaos.violations": sum(len(r.violations) for r in results),
            "faults.actions": sum(len(r.plan) for r in results),
            "coherence.syncs": stat("syncs"),
            "coherence.lost_updates": stat("lost_updates"),
            "coherence.recovered_updates": stat("recovered_updates"),
            "smock.proxy.retries": stat("retries"),
        },
        problems=[f"chaos seed {r.seed}: {r.violations[:2] or 'unfinished'}" for r in bad],
    )


# -- 7: the bare kernel, sequential and parallel ---------------------------------------


@dataclass
class _TrafficState:
    network: Any
    plan: Any
    config: TrafficConfig
    until: float
    sequential: Any = None
    parallel: Any = None


def _traffic_setup(seed: int, scale: int, spans: Any) -> _TrafficState:
    network = build_fig5_network(clients_per_site=8).network
    config = TrafficConfig(
        seed=seed,
        messages_per_client=2500 // scale,
        remote_fraction=0.05,
        think_mean_ms=10.0,
    )
    return _TrafficState(
        network, partition_network(network, credential="site"), config, 40_000.0 / scale
    )


def _traffic_drive(state: _TrafficState, spans: Any) -> Dict[str, float]:
    def arm(name: str, workers: int) -> Any:
        with spans.span(name):
            return run_parallel(
                state.network,
                site_traffic_program,
                state.config,
                workers=workers,
                until=state.until,
                plan=state.plan,
            )

    t0 = perf_counter()
    state.sequential = arm("sequential_arm", 1)
    t1 = perf_counter()
    state.parallel = arm("parallel_arm", PARALLEL_WORKERS)
    return {"measured_s": perf_counter() - t1, "seq_s": t1 - t0}


def _traffic_collect(state: _TrafficState) -> Outcome:
    seq, par = state.sequential, state.parallel
    counters = par.merged_counters()
    delivered = int(counters.get("local_delivered", 0) + counters.get("remote_delivered", 0))
    clients = sum(state.config.client_filter in name for name in state.network.node_names())
    sent = clients * state.config.messages_per_client
    problems = []
    if par.signature() != seq.signature():
        problems.append("parallel signature differs from the sequential one")
    return Outcome(
        ops=par.total_events,
        attempted=sent,
        failed=sent - delivered,
        signature=par.signature()[:16],
        sim={
            **_latency_stats(par.latency_samples()),
            "sim_goodput_per_s": delivered / (par.until_ms / 1e3),
        },
        counts={
            "sim.events": par.total_events,
            "sim.parallel.workers_used": par.workers_used,
            "sim.parallel.messages_out": sum(
                p["messages_out"] for p in par.partitions.values()
            ),
            "sim.parallel.min_lookahead_ms": par.min_lookahead_ms,
        },
        problems=problems,
    )


def _mail(name: str, why: str, op: str, reps: int, *cell: Any, verify: bool = False) -> Workload:
    setup, drive, collect, matches_run_scenario = _mail_workload(*cell)
    return Workload(
        name, why, op, reps, setup, drive, collect, matches_run_scenario if verify else None
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        _mail(
            "chain_steady",
            "DS0, 1 client, 10k sends, flush never: the deployed chain in steady state; "
            "bypasses planner, coherence and load",
            "send", 15, "DS0", 1, 10_000, 0, verify=True,
        ),
        _mail(
            "coherence_storm",
            "DS500, 5 clients x 1000 sends: flush batches and invalidation fan-out dominate, "
            "so a coherence change shows here and not in chain_steady",
            "send", 9, "DS500", 5, 1_000, 0,
        ),
        _mail(
            "view_reads",
            "DS500, 5 clients x (100 sends + 1000 receives): reads beside writes, "
            "so a write-path gain that costs reads shows",
            "send or receive", 7, "DS500", 5, 100, 1_000,
        ),
        Workload(
            "bind_storm",
            "30 dynamic binds on the 34-node topology, a distinct client node each: "
            "planner, routing and lookup/deploy do all the work, the data path none",
            "bind", 7, _bind_setup, _bind_drive, _bind_collect,
        ),
        Workload(
            "flash_autonomic",
            "open-loop 70->600 req/s flash crowd with protection and the autonomic loop: "
            "the only workload running load, overload, retries, telemetry and replanning",
            "offered request", 5, _flash_setup, _flash_drive, _flash_collect,
        ),
        Workload(
            "chaos_faults",
            "8 chaos cases, alternate ones crashing the control plane: faults, detector, "
            "replanning, reconcile, leases and the directory journal",
            "case", 5, _chaos_setup, _chaos_drive, _chaos_collect,
        ),
        Workload(
            "site_traffic",
            "kernel + sim.transport with no Smock above, sequential and on "
            "min(3, nproc) workers: the only user of sim.parallel",
            "event", 5, _traffic_setup, _traffic_drive, _traffic_collect,
        ),
    )
}
