"""Figure 6: the planner's deployments for the three sites.

Benchmarks the wall time of computing all three site deployments (the
paper's planning step 4) per algorithm, asserting the resulting chains
match the figure — plus the planner fast path: repeated planning of an
identical request must be at least 2x faster with caching on than off,
while producing structurally identical plans.
"""

import time

import pytest

from repro.experiments import EXPECTED_CHAINS, run_fig6
from repro.planner import ALGORITHMS


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_fig6_deployments(benchmark, algorithm, report_lines):
    deployments = benchmark.pedantic(
        lambda: run_fig6(algorithm=algorithm), rounds=1, iterations=1
    )
    for site, result in deployments.items():
        units = [u for u, _ in result.chain]
        expected_units = [u for u, _ in EXPECTED_CHAINS[site]]
        assert units == expected_units, f"{algorithm}/{site}: {units}"
    benchmark.extra_info["algorithm"] = algorithm
    benchmark.extra_info["chains"] = {
        site: " -> ".join(f"{u}@{s}" for u, s in r.chain)
        for site, r in deployments.items()
    }
    report_lines.append(f"Fig6 [{algorithm}]: all three site chains match the paper")
    for site, r in deployments.items():
        report_lines.append(
            f"  {site:9s}: " + " -> ".join(f"{u}({s[:3]})" for u, s in r.chain)
        )


def _fig6_planner(**kwargs):
    from repro.experiments.topology_fig5 import build_fig5_network
    from repro.planner import Planner
    from repro.services.mail import build_mail_spec, mail_translator

    topo = build_fig5_network(clients_per_site=2)
    planner = Planner(
        build_mail_spec(), topo.network, mail_translator(),
        algorithm="exhaustive", **kwargs,
    )
    planner.preinstall("MailServer", topo.server_node)
    return planner


def _plan_repeatedly(planner, repeats):
    from repro.planner import PlanRequest

    t0 = time.perf_counter()
    plans = [
        planner.plan(
            PlanRequest("ClientInterface", "sandiego-client1", context={"User": "Bob"})
        )
        for _ in range(repeats)
    ]
    return time.perf_counter() - t0, plans


def test_repeated_planning_speedup(benchmark, report_lines):
    """Acceptance: repeated identical binds are >= 2x faster with the
    plan cache on, and every cached plan equals the searched one."""
    repeats = 5
    cold = _fig6_planner(plan_cache=False, memoize=False)
    cold_s, cold_plans = _plan_repeatedly(cold, repeats)

    cached = _fig6_planner()
    cached_s, cached_plans = benchmark.pedantic(
        lambda: _plan_repeatedly(cached, repeats), rounds=1, iterations=1
    )

    for a, b in zip(cold_plans, cached_plans):
        assert {p.key for p in a.placements} == {p.key for p in b.placements}
        assert a.score == b.score
    assert cached.plan_cache.stats.hits >= repeats - 1
    speedup = cold_s / cached_s
    assert speedup >= 2.0, f"fast path only {speedup:.1f}x on repeated planning"
    benchmark.extra_info["speedup"] = round(speedup, 1)
    report_lines.append(
        f"Planner fast path: {repeats}x repeated plan {speedup:.0f}x faster "
        f"with caching ({cold_s * 1e3:.0f} ms -> {cached_s * 1e3:.1f} ms), "
        "identical plans"
    )
