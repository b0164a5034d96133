"""The nine deployment scenarios of Figure 7 (paper §4.2).

- **DF** — dynamic deployment, fast connection (New York clients).
- **DS0 / DS500 / DS1000** — dynamic deployment, slow connection (San
  Diego clients) with coherence overheads none / limit-500 / limit-1000.
- **SF / SS0 / SS500 / SS1000** — "hand-generated" static counterparts
  of the above, bypassing the planner entirely.
- **SS** — the simplest static scenario: clients connect directly to the
  MailServer "unaware of the slow link" (and of the insecure link — a
  static configuration the planner would reject).

Each scenario runs 1..5 workload clients, every client sending 100
messages and receiving 10 times at maximum rate; the reported metric is
the average client-perceived *send* latency, exactly Figure 7's y-axis.

Expected grouping (the paper's three key points):
Group 1 {SF, SS0, DF, DS0} fastest and nearly identical (dynamic ≈
static); Group 2 {SS1000, DS1000}; Group 3 {SS500, DS500}; Group 4 {SS}
slowest by ~2 orders of magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..load.roster import generate_roster
from ..planner import DeploymentPlan, Placement, PlannedLinkage
from ..services.mail import DEFAULT_USERS, WorkloadConfig
from ..smock import ServiceProxy
from .mail_setup import MailTestbed, build_mail_testbed
from .topology_fig5 import SITE_TRUST

__all__ = ["ScenarioDef", "ScenarioResult", "SCENARIOS", "run_scenario", "fig7_series"]


@dataclass(frozen=True)
class ScenarioDef:
    """One Figure 7 scenario."""

    name: str
    site: str  #: where the clients are
    dynamic: bool  #: planner-driven (D*) vs hand-generated (S*)
    flush_policy: str = "never"  #: policy for ViewMailServer replicas
    use_view_chain: bool = True  #: static only: deploy the VMS/E/D chain
    description: str = ""


SCENARIOS: Dict[str, ScenarioDef] = {
    "DF": ScenarioDef("DF", "newyork", True, "never",
                      description="dynamic deployment, fast connection"),
    "DS0": ScenarioDef("DS0", "sandiego", True, "never",
                       description="dynamic, slow connection, no coherence"),
    "DS500": ScenarioDef("DS500", "sandiego", True, "count:500",
                         description="dynamic, slow, flush every 500 messages"),
    "DS1000": ScenarioDef("DS1000", "sandiego", True, "count:1000",
                          description="dynamic, slow, flush every 1000 messages"),
    "SF": ScenarioDef("SF", "newyork", False, "never",
                      description="static counterpart of DF"),
    "SS0": ScenarioDef("SS0", "sandiego", False, "never",
                       description="static counterpart of DS0"),
    "SS500": ScenarioDef("SS500", "sandiego", False, "count:500",
                         description="static counterpart of DS500"),
    "SS1000": ScenarioDef("SS1000", "sandiego", False, "count:1000",
                          description="static counterpart of DS1000"),
    "SS": ScenarioDef("SS", "sandiego", False, "never", use_view_chain=False,
                      description="static direct connection, unaware of the slow link"),
}

#: the four latency groups the paper identifies, best-first
FIG7_GROUPS: Tuple[Tuple[str, ...], ...] = (
    ("SF", "SS0", "DF", "DS0"),
    ("SS1000", "DS1000"),
    ("SS500", "DS500"),
    ("SS",),
)


@dataclass
class ScenarioResult:
    """Measured outcome of one (scenario, n_clients) cell."""

    scenario: str
    n_clients: int
    mean_send_ms: float
    mean_receive_ms: float
    per_client_send_ms: List[float] = field(default_factory=list)
    bind_total_ms: float = 0.0
    coherence_syncs: int = 0
    errors: List[str] = field(default_factory=list)


def _static_plan_for_client(
    testbed: MailTestbed, client_node: str, scenario: ScenarioDef
) -> DeploymentPlan:
    """Hand-generate the static deployment for one client.

    Mirrors what a developer would wire by hand: either the full
    MC -> VMS -> E -> D -> MS chain (SS0/SS500/SS1000), or the naive
    direct MC -> MS connection (SS).
    """
    topo = testbed.topology
    site = scenario.site
    ms_key_placement = Placement(unit="MailServer", node=topo.server_node, reused=True)

    if site == "newyork" or not scenario.use_view_chain:
        placements = [
            Placement(unit="MailClient", node=client_node),
            ms_key_placement,
        ]
        linkages = [PlannedLinkage(0, 1, "ServerInterface")]
        return DeploymentPlan(placements, linkages, 0, client_node)

    trust = SITE_TRUST[site]
    gw = topo.gateways[site]
    ny_gw = topo.gateways["newyork"]
    placements = [
        Placement(unit="MailClient", node=client_node),
        Placement(unit="ViewMailServer", node=gw, factor_values=(("TrustLevel", trust),)),
        Placement(unit="Encryptor", node=gw),
        Placement(unit="Decryptor", node=ny_gw),
        ms_key_placement,
    ]
    linkages = [
        PlannedLinkage(0, 1, "ServerInterface"),
        PlannedLinkage(1, 2, "ServerInterface"),
        PlannedLinkage(2, 3, "DecryptorInterface"),
        PlannedLinkage(3, 4, "ServerInterface"),
    ]
    return DeploymentPlan(placements, linkages, 0, client_node)


def _workload_users(n_clients: int) -> List[str]:
    """One user name per client: the paper's five, then generated names
    (the scale benchmarks run 25/50/100 clients).  Delegates to the
    shared roster generator so scripted clients and open-loop load draw
    from one namespace (:mod:`repro.load.roster`)."""
    return generate_roster(n_clients)


def _bind_clients(
    testbed: MailTestbed,
    scenario: ScenarioDef,
    n_clients: int,
    users: Optional[Sequence[str]] = None,
) -> List[ServiceProxy]:
    """Deploy (dynamically or statically) and bind one proxy per client."""
    runtime = testbed.runtime
    nodes = testbed.client_nodes(scenario.site)[:n_clients]
    if len(nodes) < n_clients:
        raise ValueError(
            f"site {scenario.site} has only {len(nodes)} client nodes"
        )
    users = list(users) if users is not None else _workload_users(n_clients)
    if scenario.dynamic:
        return [testbed.connect(node, user) for node, user in zip(nodes, users)]
    proxies: List[ServiceProxy] = []
    for node, user in zip(nodes, users):
        plan = _static_plan_for_client(testbed, node, scenario)
        record = runtime.deploy_manual(plan)
        proxies.append(
            ServiceProxy(runtime, node, "ClientInterface", record.root_instance, user)
        )
    return proxies


def run_scenario(
    scenario: str | ScenarioDef,
    n_clients: int,
    clients_per_site: int = 5,
    seed: int = 0,
    n_sends: int = 100,
    n_receives: int = 10,
    cluster_size: int = 10,
    **testbed_kwargs,
) -> ScenarioResult:
    """Build a fresh testbed and measure one Figure 7 cell.

    ``n_clients`` beyond the paper's five users works too (the scale
    benchmarks bind 25/50/100 clients with generated account names);
    extra keyword arguments pass through to :func:`build_mail_testbed`
    (e.g. the runtime hot-path knobs).
    """
    if isinstance(scenario, str):
        scenario = SCENARIOS[scenario]
    if not 1 <= n_clients <= clients_per_site:
        raise ValueError(f"n_clients must be in [1, {clients_per_site}]")

    users = _workload_users(n_clients)
    # The account roster stays a superset of the paper's five users so
    # that small runs are bit-identical to the historical setup; larger
    # client counts extend it with the generated names.
    roster = list(DEFAULT_USERS) + users[len(DEFAULT_USERS):]
    testbed = build_mail_testbed(
        clients_per_site=clients_per_site,
        flush_policy=scenario.flush_policy,
        users=roster,
        **testbed_kwargs,
    )
    runtime = testbed.runtime
    proxies = _bind_clients(testbed, scenario, n_clients, users=users)
    bind_total = runtime.sim.now

    site_trust = SITE_TRUST[scenario.site]
    configs = [
        WorkloadConfig(
            user=user,
            peers=[u for u in users if u != user] or [user],
            n_sends=n_sends,
            n_receives=n_receives,
            cluster_size=cluster_size,
            max_sensitivity=site_trust,
            seed=seed + i,
        )
        for i, user in enumerate(users)
    ]
    procs = testbed.start_workloads(proxies, configs, "wl:")
    runtime.sim.run()

    sends: List[float] = []
    receives: List[float] = []
    per_client: List[float] = []
    errors: List[str] = []
    for proc in procs:
        if proc.failed:
            raise proc.value
        result = proc.value
        sends.extend(result.send_latency.samples)
        receives.extend(result.receive_latency.samples)
        per_client.append(result.mean_send_ms)
        errors.extend(result.errors)

    return ScenarioResult(
        scenario=scenario.name,
        n_clients=n_clients,
        mean_send_ms=sum(sends) / len(sends) if sends else 0.0,
        mean_receive_ms=sum(receives) / len(receives) if receives else 0.0,
        per_client_send_ms=per_client,
        bind_total_ms=bind_total,
        coherence_syncs=runtime.coherence.stats.syncs,
        errors=errors,
    )


def fig7_series(
    client_counts: Sequence[int] = (1, 2, 3, 4, 5),
    scenarios: Optional[Sequence[str]] = None,
    **kwargs,
) -> Dict[str, List[ScenarioResult]]:
    """The full Figure 7 data: scenario -> results for each client count."""
    names = list(scenarios) if scenarios else list(SCENARIOS)
    return {
        name: [run_scenario(name, k, **kwargs) for k in client_counts]
        for name in names
    }


def format_fig7_table(series: Dict[str, List[ScenarioResult]]) -> str:
    """Render the Figure 7 data as the paper's series (ms, log-scale plot)."""
    counts = [r.n_clients for r in next(iter(series.values()))]
    lines = ["scenario  " + "".join(f"{k:>10d}" for k in counts) + "   (clients)"]
    for name, results in series.items():
        lines.append(
            f"{name:9s} "
            + "".join(f"{r.mean_send_ms:10.2f}" for r in results)
        )
    return "\n".join(lines)


__all__.append("format_fig7_table")
__all__.append("FIG7_GROUPS")
