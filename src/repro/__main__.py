"""Command-line interface: ``python -m repro <command>``.

Commands regenerate the paper's artifacts or validate user specs:

- ``fig5``      — print the case-study topology
- ``fig6``      — plan and print the three site deployments
- ``fig7``      — run the nine-scenario latency sweep
- ``costs``     — the §4.2 one-time cost breakdown
- ``chains``    — enumerate Figure 3's valid linkage chains
- ``validate``  — parse + validate a service spec file (readable or XML)
- ``plan``      — plan the mail service for a client at a given site
- ``mail``      — run the mail service end to end on the Smock runtime
- ``chaos-sweep`` — seeded chaos runs with post-quiescence invariants

Every command accepts the observability options::

    python -m repro mail --trace /tmp/t.jsonl --metrics

``--trace`` writes a JSON-lines trace (nested ``client_connect`` →
``bind`` → ``plan``/``deploy`` spans with simulated *and* wall-clock
durations, plus a final metrics-snapshot record); ``--metrics`` prints
the counter/histogram summary; ``--log-json`` switches the console
output to structured JSON log lines.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .obs import (
    FlightRecorder,
    Observability,
    configure_logging,
    get_logger,
    set_default_obs,
)

log = get_logger("cli")

#: the ``--algorithm`` choices: ``repro.planner.ALGORITHMS``' names,
#: spelled out so building the parser imports no planner code
ALGORITHM_CHOICES = ("dp_chain", "exhaustive")


def _write_json(path: str, payload) -> None:
    """Write ``payload`` as indented JSON, creating parent directories."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)


def _interval_ms(text: str) -> float:
    """argparse type for ``--telemetry-interval``: finite and > 0."""
    value = float(text)
    if not 0 < value < float("inf"):  # also rejects NaN
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def cmd_fig5(args: argparse.Namespace) -> int:
    from .experiments import build_fig5_network

    topo = build_fig5_network(clients_per_site=args.clients)
    log.info(f"Figure 5 topology: {len(topo.network)} nodes, "
             f"{topo.network.n_links} links")
    for link in topo.network.links():
        kind = "secure " if link.secure else "INSECURE"
        log.info(f"  {link.a:18s} <-> {link.b:18s} {link.latency_ms:6.0f} ms "
                 f"{link.bandwidth_mbps:6.0f} Mb/s  {kind}")
    return 0


def cmd_fig6(args: argparse.Namespace) -> int:
    from .experiments import build_fig5_network, run_fig6

    deployments = run_fig6(algorithm=args.algorithm)
    for site, result in deployments.items():
        status = "matches the paper" if result.matches_paper else "DIFFERS"
        log.info(f"{site} ({status}):")
        log.info("  " + " -> ".join(f"{u}@{s}" for u, s in result.chain))
    if args.draw:
        from .viz import render_deployment

        topo = build_fig5_network(clients_per_site=2)
        log.info("")
        log.info(render_deployment(topo.network, [d.plan for d in deployments.values()]))
    return 0


def cmd_fig7(args: argparse.Namespace) -> int:
    from .experiments import fig7_series, format_fig7_table

    counts = tuple(range(1, args.max_clients + 1))
    series = fig7_series(client_counts=counts, scenarios=args.scenarios or None)
    log.info(format_fig7_table(series))
    return 0


def cmd_costs(args: argparse.Namespace) -> int:
    from .experiments import format_cost_table, measure_onetime_costs

    log.info(format_cost_table(measure_onetime_costs()))
    return 0


def cmd_chains(args: argparse.Namespace) -> int:
    from .planner import valid_chains
    from .services.mail import build_mail_spec

    chains = valid_chains(
        build_mail_spec(), args.interface, max_units=args.max_units, max_repeat=2
    )
    for chain in chains:
        log.info("  " + " -> ".join(chain))
    log.info(f"({len(chains)} valid chains)")
    return 0


_FIRST_TAG = re.compile(r"<([A-Za-z]\w*)(\s?)")


def _is_xml_spec(text: str) -> bool:
    """XML starts with a declaration or a ``<Service ...>`` tag; the
    readable form's tags never carry attributes."""
    if text.lstrip().startswith("<?xml"):
        return True
    first = _FIRST_TAG.search(text)
    return first is not None and first.group(1) == "Service" and bool(first.group(2))


def cmd_validate(args: argparse.Namespace) -> int:
    from .spec import SpecError, from_xml, parse_service

    try:
        text = open(args.file).read()
    except OSError as exc:
        log.error(f"INVALID: cannot read {args.file}: {exc.strerror or exc}")
        return 1
    try:
        if _is_xml_spec(text):
            spec = from_xml(text)
        else:
            spec = parse_service(text)
    except SpecError as exc:
        log.error(f"INVALID: {exc}")
        return 1
    log.info(f"OK: {spec}")
    for unit in spec.units():
        kind = "view" if unit.is_view else "component"
        log.info(f"  {kind:9s} {unit.name}: implements "
                 f"{[b.interface for b in unit.implements]}, requires "
                 f"{[b.interface for b in unit.requires]}")
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    from .experiments.topology_fig5 import build_fig5_network
    from .planner import Planner, PlanningError, PlanRequest
    from .services.mail import build_mail_spec, mail_translator

    topo = build_fig5_network(clients_per_site=2)
    planner = Planner(
        build_mail_spec(), topo.network, mail_translator(), algorithm=args.algorithm
    )
    planner.preinstall("MailServer", topo.server_node)
    node = topo.clients[args.site][0]
    try:
        plan = planner.plan(
            PlanRequest("ClientInterface", node, context={"User": args.user})
        )
    except PlanningError as exc:
        log.error(f"no valid deployment: {exc}")
        return 1
    log.info(plan.describe())
    return 0


def cmd_mail(args: argparse.Namespace) -> int:
    """End-to-end mail service run: connect clients at several sites,
    drive their workloads, and report latencies + coherence activity.

    This exercises the full Figure 1 timeline (lookup → proxy download →
    planning → deployment → binding → steady-state requests), which
    makes it the natural target of ``--trace``/``--metrics``.
    """
    from .experiments import build_mail_testbed
    from .services.mail import DEFAULT_USERS, WorkloadConfig
    from .smock import RetryPolicy

    # --slo / --flight need the sampler; default its interval on demand
    # (--autonomic defaults it inside the runtime itself).
    telemetry_interval = args.telemetry_interval
    if telemetry_interval is None and (args.slo or args.flight):
        telemetry_interval = 500.0
    flight = FlightRecorder() if args.flight else None
    testbed = build_mail_testbed(
        clients_per_site=max(1, args.clients_per_site),
        flush_policy=args.flush_policy,
        algorithm=args.algorithm,
        telemetry_interval_ms=telemetry_interval,
        flight=flight,
        autonomic=args.autonomic,
    )
    runtime = testbed.runtime
    sites = args.sites
    users = [DEFAULT_USERS[i % len(DEFAULT_USERS)] for i in range(len(sites))]

    replanner = None
    if args.chaos:
        replanner = runtime.enable_self_healing(
            heartbeat_interval_ms=args.heartbeat_interval,
            miss_threshold=args.miss_threshold,
        )

    proxies = []
    for site, user in zip(sites, users):
        retry = RetryPolicy(
            timeout_ms=args.retry_timeout, max_retries=args.max_retries, seed=args.seed
        ) if args.chaos else None
        proxies.append(testbed.connect(testbed.client_nodes(site)[0], user, retry))
        record = runtime.bind_records[-1]
        plan = runtime.generic_server.accesses[-1].plan
        chain = " -> ".join(
            f"{p.unit}@{p.node}" for p in plan.chain_from_root()
        )
        log.info(f"{site}: {user} bound to {chain}")
        log.info(
            f"  one-time cost {record.total_ms:8.1f} ms  "
            f"(lookup {record.lookup_ms:.1f}, planning {record.planning_ms:.1f}, "
            f"deployment {record.deployment_ms:.1f})"
        )

    procs = testbed.start_workloads(
        proxies,
        [
            WorkloadConfig(
                user=user,
                peers=[u for u in users if u != user] or [user],
                n_sends=args.sends,
                n_receives=args.receives,
                seed=args.seed,
            )
            for user in users
        ],
        "workload:",
    )

    if not args.chaos:
        runtime.sim.run()
    else:
        # Chaos run: fault times are relative to workload start.
        import dataclasses

        from .faults import FaultPlan

        t0 = runtime.sim.now
        plan = FaultPlan(seed=args.chaos_seed)
        for action in FaultPlan.parse(args.chaos, seed=args.chaos_seed).actions:
            plan.add(dataclasses.replace(
                action,
                at_ms=action.at_ms + t0,
                until_ms=None if action.until_ms is None
                else action.until_ms + t0,
            ))
        for line in plan.describe():
            log.info(f"chaos: {line}")
        testbed.inject(plan)
        # Run until every workload finishes (or gives up at the horizon).
        testbed.drive(
            lambda: all(p.triggered for p in procs),
            deadline=t0 + args.chaos_horizon,
        )

    for site, user, proc in zip(sites, users, procs):
        if not proc.triggered:
            log.error(f"{site}: {user} workload did not finish")
            continue
        if proc.failed:
            log.error(f"{site}: {user} workload failed: {proc.value!r}")
            continue
        result = proc.value
        errors = f", {len(result.errors)} errors" if result.errors else ""
        log.info(
            f"{site}: {user} mean send {result.mean_send_ms:8.2f} ms, "
            f"mean receive {result.mean_receive_ms:8.2f} ms{errors}"
        )
    stats = runtime.coherence.stats
    log.info(
        f"coherence: {stats.local_updates} local updates, {stats.syncs} flushes, "
        f"{stats.invalidations} invalidations, {stats.stale_reads} stale reads"
    )
    manager = runtime.autonomic
    if manager is not None:
        installed = sum(len(e.installed) for e in manager.events)
        retired = sum(len(e.retired) for e in manager.events)
        log.info(
            f"autonomic: {len(manager.events)} action(s) "
            f"({manager.suppressed} signals suppressed), "
            f"{installed} replica(s) installed, {retired} retired, "
            f"views {manager._baseline_views or manager._view_count()} -> "
            f"{manager._view_count()} (peak {manager.views_peak})"
        )
        for event in manager.events:
            detail = ""
            if event.installed or event.retired:
                detail = (
                    f" (+{len(event.installed)}/-{len(event.retired)} instances)"
                )
            log.info(
                f"  {event.time_ms:8.0f} ms  {event.action:9s} "
                f"rule={event.rule} {event.series}={event.value:.3g}{detail}"
            )
    if replanner is not None:
        detector = runtime.failure_detector
        rounds = [e for e in replanner.events if not e.deferred]
        rebinds = sum(len(e.rebound) for e in rounds)
        retries = sum(p.retries for p in proxies)
        timeouts = sum(p.timeouts for p in proxies)
        log.info(
            f"failover: {detector.failures_detected} failures detected, "
            f"{detector.recoveries_detected} recoveries, {len(rounds)} replan "
            f"rounds, {rebinds} client rebinds"
        )
        log.info(
            f"          {retries} retries, {timeouts} request timeouts, "
            f"{stats.lost_updates} lost updates ({stats.lost_units} units)"
        )
        log.info(
            f"          {stats.recovered_updates} recovered via anti-entropy, "
            f"{stats.duplicates_rejected} duplicates rejected, "
            f"{stats.degraded_reads} degraded reads, "
            f"{stats.degraded_writes} degraded writes"
        )
    if args.slo:
        report = testbed.slo_report(args.slo)
        for line in report.render().splitlines():
            log.info(line)
        if args.slo_report:
            _write_json(args.slo_report, report.to_dict())
            log.info(f"[slo] report -> {args.slo_report}")
    if flight is not None:
        written = flight.dump_jsonl(args.flight)
        dropped = f" (+{flight.dropped} dropped)" if flight.dropped else ""
        log.info(f"[flight] {written} records{dropped} -> {args.flight}")
    log.info(f"simulated time: {runtime.sim.now:.1f} ms")
    return 0


def cmd_chaos_sweep(args: argparse.Namespace) -> int:
    """Seeded chaos sweep: generate a fault plan per seed, run the mail
    scenario under it, and check the post-quiescence invariants
    (durability of acked sends, replica convergence, client re-binding,
    and — with ``--check-determinism`` — same-seed reproducibility)."""
    from .chaos import ChaosCaseConfig, run_chaos_case

    # Artifacts want a flight recording, which needs the sampler;
    # default its interval on demand.
    telemetry_interval = args.telemetry_interval
    if telemetry_interval is None and args.artifacts:
        telemetry_interval = 500.0
    config = ChaosCaseConfig(
        n_sends=args.sends,
        n_receives=args.receives,
        n_faults=args.faults,
        horizon_ms=args.horizon,
        kinds=args.kinds or None,
        telemetry_interval_ms=telemetry_interval,
        slo=args.slo,
        load_rate_per_s=args.load_rate,
        load_arrival=args.load_arrival,
        load_users=args.load_users,
        overload_protection=args.overload_protection,
        autonomic=args.autonomic,
        crash_control_plane=args.crash_control_plane,
    )
    seeds = list(range(args.seed_base, args.seed_base + args.seeds))
    log.info(
        f"chaos-sweep: {len(seeds)} seeds, {config.n_faults} faults over "
        f"{config.horizon_ms:.0f} ms each"
    )
    failures = []
    crashed: list = []
    slo_failures: list = []
    slo_reports: dict = {}
    log.info(f"{'seed':>6}  {'ok':2}  {'acked':>5}  {'retries':>7}  "
             f"{'recovered':>9}  {'degraded':>8}  {'dup-rej':>7}  "
             f"{'dropped':>7}  faults")
    for seed in seeds:
        # One seed blowing up (a harness bug, not an invariant miss)
        # must not take the rest of the sweep down with it: contain it,
        # report it, keep sweeping, and still exit non-zero.
        try:
            result = run_chaos_case(seed, config)
            if args.check_determinism:
                rerun = run_chaos_case(seed, config)
                if rerun.signature != result.signature:
                    result.violations.append(
                        f"determinism: two runs of seed {seed} diverged "
                        f"({result.signature[:12]} vs {rerun.signature[:12]})"
                    )
        except Exception as exc:  # noqa: BLE001 - containment is the point
            log.error(f"{seed:>6}  !!  case crashed: {exc!r}")
            crashed.append((seed, repr(exc)))
            continue
        ok = "ok" if result.ok else "NO"
        kinds = ",".join(sorted({line.split(":", 1)[0] for line in result.plan}))
        dropped = str(result.flight_dropped) if result.flight is not None else "-"
        log.info(
            f"{seed:>6}  {ok:2}  {result.acked_sends:>5}  "
            f"{result.stats['retries']:>7}  "
            f"{result.stats['recovered_updates']:>9}  "
            f"{result.stats['degraded_reads'] + result.stats['degraded_writes']:>8}  "
            f"{result.stats['duplicates_rejected']:>7}  "
            f"{dropped:>7}  {kinds}"
        )
        for violation in result.violations:
            log.error(f"        {violation}")
        if result.slo_report is not None and not result.slo_report["passed"]:
            missed = sum(1 for row in result.slo_report["rows"] if not row["ok"])
            log.info(f"        slo: {missed} objective(s) violated")
            slo_failures.append(seed)
        if result.slo_report is not None:
            slo_reports[str(seed)] = result.slo_report
        if not result.ok:
            failures.append(result)

    log.info(
        f"chaos-sweep: {len(seeds) - len(failures) - len(crashed)}/{len(seeds)} "
        f"seeds passed every invariant"
    )
    if crashed:
        log.error(f"chaos-sweep: {len(crashed)} seed(s) crashed the harness")
    if slo_failures and args.fail_on_slo:
        log.error(
            f"chaos-sweep: SLO violated on seed(s) {slo_failures} "
            f"(--fail-on-slo)"
        )
    if args.artifacts:
        for result in failures:
            _write_json(
                os.path.join(args.artifacts, f"seed-{result.seed}.json"),
                {
                    "seed": result.seed,
                    "plan": result.plan,
                    "violations": result.violations,
                    "signature": result.signature,
                    "stats": result.stats,
                    "workload_errors": result.workload_errors,
                    "flight_dropped": result.flight_dropped,
                    "control_plane": result.control_plane,
                },
            )
            if result.flight is not None:
                from .obs.flight import dump_records_jsonl

                flight_path = os.path.join(
                    args.artifacts, f"seed-{result.seed}-flight.jsonl"
                )
                dump_records_jsonl(
                    result.flight, flight_path, dropped=result.flight_dropped
                )
        if slo_reports:
            _write_json(
                os.path.join(args.artifacts, "slo-reports.json"), slo_reports
            )
        if crashed:
            _write_json(
                os.path.join(args.artifacts, "crashed-seeds.json"),
                [{"seed": s, "error": e} for s, e in crashed],
            )
        if failures:
            log.info(f"chaos-sweep: wrote {len(failures)} failure artifacts "
                     f"(+ flight recordings) to {args.artifacts}")
    if failures or crashed:
        return 1
    if slo_failures and args.fail_on_slo:
        return 1
    return 0


def cmd_load_sweep(args: argparse.Namespace) -> int:
    """Open-loop load harness: either a Poisson rate sweep (goodput
    curves per protection mode, knee detection) or — without ``--rates``
    — the headline flash-crowd pair (same seeded trace, protection off
    vs on, plus a steady reference cell defining peak goodput).  With
    ``--autonomic`` the pair gains a fourth cell running the closed
    telemetry -> replanning loop; ``--fail-on-slo`` then gates on that
    cell's SLO report instead of the protected one's."""
    from .load import LoadConfig, run_flash_crowd_pair, run_load_sweep
    from .smock import RetryPolicy

    config = LoadConfig(
        duration_ms=args.duration,
        drain_ms=args.drain,
        n_users=args.users,
        zipf_s=args.zipf,
        seed=args.seed,
    )
    retry = RetryPolicy(timeout_ms=2000.0, max_retries=args.max_retries)
    flight = FlightRecorder() if args.flight else None

    if args.rates:
        modes = {"off": (False,), "on": (True,), "both": (False, True)}[args.modes]
        sweep = run_load_sweep(
            args.rates, modes=modes, config=config, slo=args.slo,
            retry_policy=retry, autonomic=args.autonomic,
            parallel=args.parallel,
        )
        log.info(f"load-sweep: {len(args.rates)} rates x {len(modes)} mode(s)")
        for line in sweep.render().splitlines():
            log.info(line)
        for mode in modes:
            knee = sweep.knee(mode)
            label = "protected" if mode else "unprotected"
            log.info(f"load-sweep: {label} knee ~ {knee} req/s")
        artifact = {"kind": "load-sweep", **sweep.as_dict()}
        protected_cells = sweep.curve(True)
        slo_ok = all(c.slo_passed for c in protected_cells) if protected_cells else False
    else:
        pair = run_flash_crowd_pair(
            base_rate_per_s=args.base_rate,
            peak_rate_per_s=args.peak_rate,
            at_ms=args.flash_at,
            ramp_ms=args.ramp,
            hold_ms=args.hold,
            decay_ms=args.decay,
            reference_rate_per_s=args.reference_rate or None,
            config=config,
            slo=args.slo,
            retry_policy=retry,
            autonomic=args.autonomic,
            flight=flight,
        )
        cells = [("reference", pair.reference), ("unprotected", pair.unprotected),
                 ("protected", pair.protected), ("autonomic", pair.autonomic)]
        for name, cell in cells:
            if cell is None:
                continue
            slo = "-" if cell.slo_passed is None else (
                "PASS" if cell.slo_passed else "FAIL")
            log.info(
                f"load-sweep[{name}]: offered={cell.offered} ok={cell.ok} "
                f"goodput={cell.goodput_per_s:.1f}/s "
                f"timely={cell.timely_goodput_per_s:.1f}/s "
                f"avail={cell.availability:.3f} p50={cell.p50_ms:.0f}ms "
                f"p99={cell.p99_ms:.0f}ms slo={slo}"
            )
        if pair.peak_goodput_per_s:
            retention = (
                f"load-sweep: peak goodput {pair.peak_goodput_per_s:.1f}/s; "
                f"retention unprotected "
                f"{pair.unprotected_retention:.1%} vs protected "
                f"{pair.protected_retention:.1%}"
            )
            if pair.autonomic_retention is not None:
                retention += f" vs autonomic {pair.autonomic_retention:.1%}"
            log.info(retention)
        summary = pair.autonomic.autonomic if pair.autonomic else None
        if summary is not None:
            log.info(
                f"load-sweep[autonomic]: scale-out at "
                f"{summary['scale_out_at_ms']:.0f} ms, "
                f"{summary['installed']} installed / {summary['retired']} "
                f"retired, views {summary['views_baseline']} -> "
                f"{summary['views_peak']} -> {summary['views_final']}, "
                f"p99 recovered in {summary['p99_windows_to_recover']} "
                f"window(s), {summary['lost_updates']} lost updates"
            )
        artifact = {"kind": "flash-crowd-pair", **pair.as_dict()}
        # --autonomic makes the autonomic cell the headline: gate on it.
        gate_cell = pair.autonomic if pair.autonomic is not None else pair.protected
        slo_ok = gate_cell.slo_passed is True

    if args.output:
        _write_json(args.output, artifact)
        log.info(f"load-sweep: wrote goodput artifact to {args.output}")
    if args.slo_report:
        _write_json(args.slo_report, {
            name: cell.slo_report
            for name, cell in cells
            if cell is not None and cell.slo_report is not None
        })
        log.info(f"load-sweep: wrote SLO report(s) to {args.slo_report}")
    if flight is not None:
        written = flight.dump_jsonl(args.flight)
        dropped = f" (+{flight.dropped} dropped)" if flight.dropped else ""
        log.info(f"load-sweep: {written} flight records{dropped} -> {args.flight}")
    if args.fail_on_slo and not slo_ok:
        log.error("load-sweep: gated run failed the SLO (--fail-on-slo)")
        return 1
    return 0


def cmd_parallel_sim(args: argparse.Namespace) -> int:
    """Conservative parallel kernel demo on the Figure-5 topology: the
    three sites become three logical processes (lookahead = min
    inter-site latency) hosting the deterministic site-traffic workload
    on ``--workers`` processes.  ``--check-determinism`` re-runs the
    identical workload single-process and asserts equal run signatures
    — worker count is placement, never physics."""
    from .experiments.topology_fig5 import build_fig5_network
    from .sim.parallel import (
        TrafficConfig,
        partition_network,
        run_parallel,
        site_traffic_program,
    )

    topo = build_fig5_network(clients_per_site=args.clients)
    plan = partition_network(topo.network)
    for line in plan.describe():
        log.info(f"parallel-sim: {line}")

    config = TrafficConfig(
        seed=args.seed,
        messages_per_client=args.messages,
        remote_fraction=args.remote_fraction,
        think_mean_ms=args.think_mean,
    )
    result = run_parallel(
        topo.network, site_traffic_program, config,
        workers=args.workers, until=args.until, plan=plan,
        deadlock_timeout_s=args.deadlock_timeout,
    )
    counters = result.merged_counters()
    log.info(
        f"parallel-sim: workers={result.workers_used} "
        f"events={result.total_events} wall={result.wall_s:.3f}s "
        f"({result.events_per_sec:,.0f} events/s)"
    )
    log.info(f"parallel-sim: sync {result.sync_summary()}")
    log.info(f"parallel-sim: counters={counters}")
    log.info(f"parallel-sim: signature={result.signature()[:16]}")

    rc = 0
    artifact = {"kind": "parallel-sim", "run": result.as_dict()}
    if args.check_determinism:
        single = run_parallel(
            topo.network, site_traffic_program, config,
            workers=1, until=args.until, plan=plan,
            deadlock_timeout_s=args.deadlock_timeout,
        )
        match = single.signature() == result.signature()
        artifact["determinism"] = {
            "single_signature": single.signature(),
            "parallel_signature": result.signature(),
            "match": match,
        }
        if match:
            log.info(
                f"parallel-sim: determinism OK — workers=1 and "
                f"workers={result.workers_used} signatures match"
            )
        else:
            log.error(
                "parallel-sim: DETERMINISM VIOLATION — "
                f"workers=1 {single.signature()[:16]} != "
                f"workers={result.workers_used} {result.signature()[:16]}"
            )
            rc = 1
    if args.json:
        _write_json(args.json, artifact)
        log.info(f"parallel-sim: wrote artifact to {args.json}")
    return rc


def main(argv=None) -> int:
    obs_parser = argparse.ArgumentParser(add_help=False)
    group = obs_parser.add_argument_group("observability")
    group.add_argument("--trace", metavar="PATH", default=None,
                       help="write a JSON-lines span trace to PATH")
    group.add_argument("--metrics", action="store_true",
                       help="print the metrics summary after the command")
    group.add_argument("--log-level", default="INFO",
                       choices=["DEBUG", "INFO", "WARNING", "ERROR"])
    group.add_argument("--log-json", action="store_true",
                       help="emit structured JSON log lines instead of text")

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Partitionable-services reproduction (HPDC 2002)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig5", help="print the case-study topology",
                       parents=[obs_parser])
    p.add_argument("--clients", type=int, default=2)
    p.set_defaults(fn=cmd_fig5)

    p = sub.add_parser("fig6", help="plan the three site deployments",
                       parents=[obs_parser])
    p.add_argument("--algorithm", default="exhaustive",
                   choices=ALGORITHM_CHOICES)
    p.add_argument("--draw", action="store_true",
                   help="render the Figure 6 deployment picture")
    p.set_defaults(fn=cmd_fig6)

    p = sub.add_parser("fig7", help="run the latency scenario sweep",
                       parents=[obs_parser])
    p.add_argument("--max-clients", type=int, default=5)
    p.add_argument("--scenarios", nargs="*", default=None)
    p.set_defaults(fn=cmd_fig7)

    p = sub.add_parser("costs", help="one-time cost breakdown (§4.2)",
                       parents=[obs_parser])
    p.set_defaults(fn=cmd_costs)

    p = sub.add_parser("chains", help="enumerate valid linkage chains (Fig 3)",
                       parents=[obs_parser])
    p.add_argument("--interface", default="ClientInterface")
    p.add_argument("--max-units", type=int, default=6)
    p.set_defaults(fn=cmd_chains)

    p = sub.add_parser("validate", help="validate a service spec file",
                       parents=[obs_parser])
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("plan", help="plan the mail service for one client",
                       parents=[obs_parser])
    p.add_argument("--site", default="sandiego",
                   choices=["newyork", "sandiego", "seattle"])
    p.add_argument("--user", default="Bob")
    p.add_argument("--algorithm", default="exhaustive",
                   choices=ALGORITHM_CHOICES)
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("mail", help="run the mail service end to end",
                       parents=[obs_parser])
    p.add_argument("--sites", nargs="*", default=["sandiego", "seattle"],
                   choices=["newyork", "sandiego", "seattle"])
    p.add_argument("--clients-per-site", type=int, default=2)
    p.add_argument("--sends", type=int, default=30)
    p.add_argument("--receives", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--flush-policy", default="count:100",
                   help='replica flush policy ("never", "count:N", "time:MS", '
                        '"write_through")')
    p.add_argument("--algorithm", default="dp_chain",
                   choices=ALGORITHM_CHOICES)
    chaos = p.add_argument_group("chaos")
    chaos.add_argument("--chaos", action="append", metavar="SPEC", default=[],
                       help="inject a fault (repeatable); SPEC is e.g. "
                            '"crash:sandiego-gw@2000", "restart:NODE@T", '
                            '"partition:A/B@T", "heal:A/B@T", '
                            '"drop:A/B:P@T1-T2", "delay:A/B:MS@T1-T2", '
                            '"duplicate:A/B:P@T1-T2" (re-deliver fraction P), '
                            '"reorder:A/B:MS@T1-T2" (hold messages up to MS '
                            "so later ones overtake), "
                            '"corrupt:A/B:P@T1-T2" (garble fraction P; the '
                            "receiver rejects them), "
                            '"split:A,B|C,D@T1-T2" (sever every link between '
                            "the groups, heal at T2); times are ms after "
                            "workload start. Enables heartbeat failure "
                            "detection, failover replanning, and client "
                            "retry.")
    chaos.add_argument("--chaos-seed", type=int, default=0,
                       help="RNG seed for probabilistic faults")
    chaos.add_argument("--chaos-horizon", type=float, default=600_000.0,
                       help="give up on unfinished workloads after this many "
                            "simulated ms")
    chaos.add_argument("--heartbeat-interval", type=float, default=250.0,
                       help="failure-detector ping interval (sim ms)")
    chaos.add_argument("--miss-threshold", type=int, default=3,
                       help="consecutive missed heartbeats before a node is "
                            "declared dead")
    chaos.add_argument("--retry-timeout", type=float, default=3000.0,
                       help="per-attempt client request timeout (sim ms)")
    chaos.add_argument("--max-retries", type=int, default=15,
                       help="retry budget per request; size it to outlive "
                            "the longest outage in the fault plan")
    tele = p.add_argument_group("telemetry / SLO")
    tele.add_argument("--autonomic", action="store_true",
                      help="close the telemetry -> replanning loop: sustained "
                           "threshold breaches (hot nodes, deep queues, slow "
                           "p99) trigger scale-out replanning at measured "
                           "rates, scale-in consolidates afterwards (implies "
                           "a 500 ms telemetry sampler)")
    tele.add_argument("--telemetry-interval", type=_interval_ms, default=None,
                      metavar="MS",
                      help="sample queue depths, utilizations and windowed "
                           "percentiles every MS simulated ms "
                           "(default: off; implied 500 by --slo/--flight/"
                           "--autonomic)")
    tele.add_argument("--slo", metavar="SPEC", default=None,
                      help='evaluate an SLO spec after the run: "default", '
                           "a JSON spec file, or an inline JSON object "
                           "(enables metrics + the telemetry sampler)")
    tele.add_argument("--slo-report", metavar="PATH", default=None,
                      help="also write the SLO report as JSON to PATH")
    tele.add_argument("--flight", metavar="PATH", default=None,
                      help="dump the flight-recorder ring (recent telemetry "
                           "samples) as JSONL to PATH at exit")
    p.set_defaults(fn=cmd_mail)

    p = sub.add_parser(
        "chaos-sweep",
        help="run seeded chaos cases and check invariants",
        parents=[obs_parser],
    )
    p.add_argument("--seeds", type=int, default=20,
                   help="number of seeds to run (default 20)")
    p.add_argument("--seed-base", type=int, default=0,
                   help="first seed (cases run seed-base .. seed-base+seeds-1)")
    p.add_argument("--faults", type=int, default=3,
                   help="faults generated per case")
    p.add_argument("--horizon", type=float, default=60_000.0,
                   help="fault-schedule horizon per case (sim ms)")
    p.add_argument("--sends", type=int, default=30,
                   help="sends per workload client (one client per site)")
    p.add_argument("--receives", type=int, default=5,
                   help="fetches per workload client")
    p.add_argument("--kinds", nargs="*", default=None,
                   metavar="KIND",
                   help="restrict generated faults to these kinds (e.g. "
                        "crash split duplicate)")
    p.add_argument("--check-determinism", action="store_true",
                   help="run every seed twice and require identical run "
                        "signatures")
    p.add_argument("--artifacts", metavar="DIR", default=None,
                   help="write a JSON artifact (plus a flight-recorder "
                        "JSONL) per failing seed into DIR; SLO reports land "
                        "in DIR/slo-reports.json")
    p.add_argument("--telemetry-interval", type=_interval_ms, default=None,
                   metavar="MS",
                   help="per-case telemetry sampling interval in simulated "
                        "ms (default: off; implied 500 by --artifacts)")
    p.add_argument("--slo", metavar="SPEC", default=None,
                   help='SLO spec evaluated per seed ("default", a JSON '
                        "spec file, or an inline JSON object)")
    p.add_argument("--fail-on-slo", action="store_true",
                   help="exit non-zero when any seed violates the --slo "
                        "spec (CI gating), not just on invariant failures")
    p.add_argument("--load-rate", type=float, default=None, metavar="PER_S",
                   help="run open-loop background load at this base rate "
                        "under every case (load x fault composite)")
    p.add_argument("--load-arrival", choices=["poisson", "flash"],
                   default="poisson",
                   help="background-load arrival shape (flash peaks at 4x "
                        "the base rate mid-horizon)")
    p.add_argument("--load-users", type=int, default=1_000,
                   help="simulated-user roster size for background load")
    p.add_argument("--overload-protection", action="store_true",
                   help="enable admission control / token buckets / circuit "
                        "breakers for the composite runs")
    p.add_argument("--autonomic", action="store_true",
                   help="close the telemetry -> replanning loop per case "
                        "(load x fault x scale composite when combined with "
                        "--load-rate; implies a 500 ms telemetry sampler)")
    p.add_argument("--crash-control-plane", action="store_true",
                   help="additionally crash the framework's own brain: the "
                        "lookup primary's host and the coherence-directory "
                        "host each get a scripted crash+restart (implies "
                        "two lookup replicas, 15 s leases, and the "
                        "directory journal; adds the lookup-failover and "
                        "directory-recovery invariants)")
    p.set_defaults(fn=cmd_chaos_sweep)

    p = sub.add_parser(
        "load-sweep",
        help="open-loop load curves and the flash-crowd pair",
        parents=[obs_parser],
    )
    p.add_argument("--rates", type=float, nargs="*", default=None,
                   metavar="RATE",
                   help="offered rates (req/s) for a Poisson sweep; "
                        "omit to run the flash-crowd pair instead")
    p.add_argument("--modes", choices=["off", "on", "both"], default="both",
                   help="overload-protection modes to sweep (default both)")
    p.add_argument("--duration", type=float, default=30_000.0,
                   help="offered-load window per cell (sim ms)")
    p.add_argument("--drain", type=float, default=60_000.0,
                   help="extra sim time for in-flight requests to finish")
    p.add_argument("--users", type=int, default=10_000,
                   help="simulated-user roster size (Zipf-skewed draws)")
    p.add_argument("--zipf", type=float, default=1.1,
                   help="Zipf exponent for the hot-user skew")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-retries", type=int, default=4,
                   help="client retry budget per request")
    p.add_argument("--base-rate", type=float, default=70.0,
                   help="flash-crowd base offered rate (req/s)")
    p.add_argument("--peak-rate", type=float, default=600.0,
                   help="flash-crowd peak offered rate (req/s)")
    p.add_argument("--flash-at", type=float, default=5_000.0,
                   help="flash onset (sim ms into the window)")
    p.add_argument("--ramp", type=float, default=2_000.0,
                   help="flash ramp-up time (sim ms)")
    p.add_argument("--hold", type=float, default=12_000.0,
                   help="flash hold time at peak (sim ms)")
    p.add_argument("--decay", type=float, default=3_000.0,
                   help="flash decay time back to base (sim ms)")
    p.add_argument("--reference-rate", type=float, default=100.0,
                   help="steady pre-knee rate defining peak goodput "
                        "(flash-crowd mode; 0 skips the reference cell)")
    p.add_argument("--autonomic", action="store_true",
                   help="close the telemetry -> replanning loop: in "
                        "flash-crowd mode adds a fourth cell (protection + "
                        "autonomic scale-out/scale-in); in --rates mode "
                        "every cell runs with the loop closed")
    p.add_argument("--slo", metavar="SPEC", default=None,
                   help='grade every cell against an SLO spec ("default", '
                        "a JSON spec file, or an inline JSON object)")
    p.add_argument("--fail-on-slo", action="store_true",
                   help="exit non-zero unless the gated run (autonomic cell "
                        "with --autonomic, else protected) passes the --slo "
                        "spec (CI gating)")
    p.add_argument("--slo-report", metavar="PATH", default=None,
                   help="flash-crowd mode: write the per-cell SLO reports "
                        "as JSON to PATH")
    p.add_argument("--flight", metavar="PATH", default=None,
                   help="flash-crowd mode: dump the autonomic cell's "
                        "flight-recorder ring (telemetry samples + scale "
                        "decisions) as JSONL to PATH")
    p.add_argument("--output", metavar="PATH", default=None,
                   help="write the goodput-curve JSON artifact to PATH")
    p.add_argument("--parallel", type=int, default=0, metavar="N",
                   help="--rates mode: farm the independent cells out to "
                        "N worker processes (cells and signatures are "
                        "identical to a sequential sweep)")
    p.set_defaults(fn=cmd_load_sweep)

    p = sub.add_parser(
        "parallel-sim",
        help="conservative parallel DES demo on the Figure-5 sites",
        parents=[obs_parser],
    )
    p.add_argument("--workers", type=int, default=4, metavar="N",
                   help="worker processes (capped at the partition count; "
                        "1 = in-process, same protocol)")
    p.add_argument("--clients", type=int, default=5,
                   help="client nodes per site (Figure-5 topology)")
    p.add_argument("--messages", type=int, default=200,
                   help="messages each client sends")
    p.add_argument("--remote-fraction", type=float, default=0.05,
                   help="probability a message crosses sites")
    p.add_argument("--think-mean", type=float, default=40.0,
                   help="mean exponential think time between messages (ms)")
    p.add_argument("--until", type=float, default=30_000.0,
                   help="simulation horizon (sim ms, exclusive)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--check-determinism", action="store_true",
                   help="re-run single-process and require identical "
                        "run signatures")
    p.add_argument("--deadlock-timeout", type=float, default=60.0,
                   metavar="S",
                   help="per-worker no-progress tripwire in wall seconds "
                        "(default 60); raise for legitimately slow "
                        "workloads")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="write the run artifact (plan, per-partition "
                        "results, signature) as JSON to PATH")
    p.set_defaults(fn=cmd_parallel_sim)

    args = parser.parse_args(argv)
    # Flags that would otherwise be silently dropped are usage errors.
    if args.command == "mail" and args.slo_report and not args.slo:
        sub.choices["mail"].error("--slo-report needs --slo")
    if args.command == "load-sweep" and args.rates and (
        args.flight or args.slo_report
    ):
        sub.choices["load-sweep"].error(
            "--flight and --slo-report apply to the flash-crowd pair only; "
            "drop --rates"
        )
    configure_logging(level=args.log_level, json_output=args.log_json)

    obs = None
    previous = None
    # --slo and --telemetry-interval need a live metrics registry even
    # when --metrics wasn't asked for explicitly.
    wants_metrics = (
        args.metrics
        or getattr(args, "slo", None) is not None
        or getattr(args, "telemetry_interval", None) is not None
        or getattr(args, "flight", None) is not None
    )
    if args.trace or wants_metrics:
        obs = Observability(tracing=args.trace is not None, metrics=True)
        previous = set_default_obs(obs)
    try:
        rc = args.fn(args)
    finally:
        if obs is not None:
            set_default_obs(previous)
            if args.trace:
                # The trace carries its own metrics snapshot so one file
                # holds the complete observability record of the run.
                obs.recorder.add(
                    {"type": "metrics", "metrics": obs.metrics.snapshot()}
                )
                written = obs.recorder.to_jsonl(args.trace)
                log.info(f"[trace] {written} records -> {args.trace}")
            if args.metrics:
                log.info(obs.metrics.render())
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
