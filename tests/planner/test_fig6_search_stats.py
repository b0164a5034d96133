"""Golden pin of what each planner *does* on Figure 6, not only what it returns.

``golden/fig6_search_stats.json`` records, per algorithm and site of the
Figure 6 run (New York, San Diego, Seattle, committed in that order),
every field of the algorithm's stats record, the context's
``cache_stats`` after the search, and the plan's score.  Moving a check
from one module to another must leave all of them where they were: the
same branches expanded, pruned and rejected under the same condition,
the same memo hits and misses, the same score.

Regenerate (only when a search is *meant* to change) with
``PYTHONPATH=src python tests/planner/test_fig6_search_stats.py``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.experiments.deployments_fig6 import SITE_USERS
from repro.experiments.topology_fig5 import build_fig5_network
from repro.obs import Observability
from repro.planner import ALGORITHMS, Planner, PlanRequest
from repro.services.mail import build_mail_spec, mail_translator

GOLDEN = Path(__file__).parent / "golden" / "fig6_search_stats.json"


def record(algorithm):
    """The Figure 6 run of one algorithm, site by site."""
    topo = build_fig5_network(clients_per_site=2)
    planner = Planner(
        build_mail_spec(), topo.network, mail_translator(), algorithm=algorithm
    )
    planner.preinstall("MailServer", topo.server_node)
    sites = {}
    for site in ("newyork", "sandiego", "seattle"):
        request = PlanRequest(
            "ClientInterface", topo.clients[site][0], context={"User": SITE_USERS[site]}
        )
        plan, _report = planner.plan_and_commit(request)
        sites[site] = {
            "stats": dataclasses.asdict(planner.last_stats),
            "cache_stats": dataclasses.asdict(planner.ctx.cache_stats),
            "score": list(plan.score),
        }
    return sites


def replay():
    return {algorithm: record(algorithm) for algorithm in sorted(ALGORITHMS)}


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_fig6_search_stats_match_golden(algorithm):
    want = json.loads(GOLDEN.read_text())[algorithm]
    got = json.loads(json.dumps(record(algorithm)))
    for site in want:
        assert got[site] == want[site], f"{algorithm}/{site} moved"


def _cache_exports(monkeypatch, flush=None):
    """Every ``planner.ctx_cache.*`` / ``planner.plan_cache.*`` increment
    over the Figure 6 run, each site planned twice (the second an
    exact plan-cache hit), in order; ``flush`` replaces the planner's
    ``_flush_cache_metrics``."""
    topo = build_fig5_network(clients_per_site=2)
    planner = Planner(
        build_mail_spec(), topo.network, mail_translator(),
        obs=Observability(tracing=False),
    )
    if flush is not None:
        monkeypatch.setattr(planner, "_flush_cache_metrics", flush.__get__(planner))
    exports = []
    inc = planner.obs.metrics.inc

    def spy(name, n=1, **labels):
        if name.startswith(("planner.ctx_cache.", "planner.plan_cache.")):
            exports.append((name, n, labels))
        inc(name, n, **labels)

    monkeypatch.setattr(planner.obs.metrics, "inc", spy)
    planner.preinstall("MailServer", topo.server_node)
    for site in ("newyork", "sandiego", "seattle"):
        request = PlanRequest(
            "ClientInterface", topo.clients[site][0], context={"User": SITE_USERS[site]}
        )
        planner.plan(request)
        planner.plan_and_commit(request)
    return planner, exports


def _deep_copy_flush(self):
    """The flush as it was, over ``dataclasses.asdict`` snapshots."""
    m = self.obs.metrics
    if not m.enabled:
        return
    sources = [("planner.ctx_cache", dataclasses.asdict(self.ctx.cache_stats))]
    if self.plan_cache is not None:
        sources.append(("planner.plan_cache", dataclasses.asdict(self.plan_cache.stats)))
    for prefix, snap in sources:
        prev = self._flushed_cache_stats.get(prefix, {})
        for counter_name, value in snap.items():
            delta = value - prev.get(counter_name, 0)
            if delta:
                m.inc(f"{prefix}.{counter_name}", delta)
        self._flushed_cache_stats[prefix] = snap


def test_cache_metric_deltas_match_the_deep_copy_flush(monkeypatch):
    planner, exports = _cache_exports(monkeypatch)
    _reference, want = _cache_exports(monkeypatch, _deep_copy_flush)
    assert exports == want
    # the deltas add up to the records, and the run exercised both
    totals = {}
    for name, n, _labels in exports:
        totals[name] = totals.get(name, 0) + n
    for prefix, stats in (("planner.ctx_cache", planner.ctx.cache_stats),
                          ("planner.plan_cache", planner.plan_cache.stats)):
        for name, value in dataclasses.asdict(stats).items():
            assert totals.get(f"{prefix}.{name}", 0) == value
    assert planner.plan_cache.stats.hits > 0 and planner.ctx.cache_stats.compat_hits > 0


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(replay(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
