"""Hypothesis differentials: every planner fast path vs its reference.

- the interned condition-2 entry point vs ``_compatible_eval`` on
  generated property bags (unhashable values must step aside as
  ``uncacheable`` and still get the right verdict);
- ``Network.path`` (one shortest-path tree per source) vs a per-pair
  early-exit Dijkstra on generated BRITE topologies with equal-latency
  ties, partitioned links and dead routers — the very same hops, in both
  directions, whichever end asks first;
- ``plan_dp_chain`` (cells shared across chains with a common prefix,
  pair rows and candidate tables kept on a long-lived context) vs the
  same search with ``memoize=False`` and vs a brand-new context per
  request, through commits and structure changes, and its objective vs
  the complete ``plan_exhaustive`` reference;
- ``plan_dp_chain`` under a pruning objective, which leaves unsolved the
  chains whose root floor lies above the incumbent, vs the same
  objective with pruning off, on Figure 5 and on the generated worlds.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.deployments_fig6 import SITE_USERS
from repro.experiments.topology_fig5 import build_fig5_network
from repro.network import BriteConfig, Network, NetworkError, generate_waxman
from repro.planner import (
    DeploymentCost,
    ExpectedLatency,
    Planner,
    PlanningContext,
    PlanRequest,
)
from repro.services.mail import build_mail_spec, mail_translator
from repro.spec import ANY

from .conftest import _Unpruned

SPEC = build_mail_spec()

# -- condition 2: interned entry point vs direct evaluation ------------------------

#: Confidentiality has a modification rule, TrustLevel is ordered
#: (at_least), Tags is undeclared (exact, passes through) and is the
#: only property given unhashable values
BAGS = st.fixed_dictionaries(
    {},
    optional={
        "Confidentiality": st.sampled_from([True, False, ANY]),
        "TrustLevel": st.one_of(st.integers(1, 5), st.just(ANY)),
        "Tags": st.one_of(st.text(max_size=2), st.lists(st.integers(0, 2), max_size=2)),
    },
)


def _hashable(bag) -> bool:
    return not any(isinstance(v, list) for v in bag.values())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(BAGS, BAGS, BAGS), min_size=1, max_size=8))
def test_interned_condition2_matches_direct_evaluation(triples):
    net = Network()
    net.add_node("a")
    ctx = PlanningContext(SPEC, net, mail_translator())
    stats = ctx.cache_stats
    for required, implemented, env in triples * 2:  # second pass: all hits
        expected = ctx._compatible_eval(required, implemented, env)
        before = (stats.compat_hits + stats.compat_misses, stats.uncacheable)
        got = ctx.compatible_interned(
            required, ctx.bag_id(required),
            implemented, ctx.bag_id(implemented),
            env, ctx.bag_id(env),
        )
        assert got == expected
        assert ctx.properties_compatible(required, implemented, env) == expected
        memoized = stats.compat_hits + stats.compat_misses - before[0]
        stepped_aside = stats.uncacheable - before[1]
        if all(map(_hashable, (required, implemented, env))):
            assert (memoized, stepped_aside) == (2, 0)
        else:
            assert (memoized, stepped_aside) == (0, 2)
    assert stats.compat_misses <= len(triples)  # one evaluation per distinct triple


# -- routing: per-source tree vs per-pair Dijkstra -------------------------------


class PairwiseRoutes:
    """The routing ``Network.path`` replaced, kept as the reference: one
    early-exit Dijkstra per node pair, the reverse entry cached as the
    reversed forward path."""

    def __init__(self, net: Network) -> None:
        self.net = net
        self.cache: Dict[Tuple[str, str], Optional[tuple]] = {}
        #: neighbours in link-insertion order, as the network keeps them
        self.adj: Dict[str, List[str]] = {name: [] for name in net.node_names()}
        for link in net.links():
            self.adj[link.a].append(link.b)
            self.adj[link.b].append(link.a)

    def hops(self, src: str, dst: str) -> Optional[tuple]:
        if (src, dst) in self.cache:
            return self.cache[(src, dst)]
        net = self.net
        dist = {src: 0.0}
        prev: Dict[str, str] = {}
        heap = [(0.0, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if u == dst:
                break
            if d > dist.get(u, float("inf")):
                continue
            if u != src and not net.node(u).up:
                continue
            for v in self.adj[u]:
                link = net.link(u, v)
                if not link.up:
                    continue
                nd = d + link.latency_ms
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    prev[v] = u
                    heapq.heappush(heap, (nd, v))
        if dst not in dist:
            self.cache[(src, dst)] = self.cache[(dst, src)] = None
            return None
        hops = []
        cur = dst
        while cur != src:
            hops.append(net.link(prev[cur], cur))
            cur = prev[cur]
        hops.reverse()
        self.cache[(src, dst)] = tuple(hops)
        self.cache[(dst, src)] = tuple(reversed(hops))
        return self.cache[(src, dst)]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(4, 14),
    m=st.integers(1, 3),
    data=st.data(),
)
def test_route_trees_choose_the_per_pair_routes(seed, n, m, data):
    net = generate_waxman(BriteConfig(n_nodes=n, m_edges=min(m, n - 1), seed=seed))
    names = net.node_names()
    links = list(net.links())
    # Latencies from a two-value set make equal-latency routes the norm.
    for link in links:
        link.latency_ms = float(data.draw(st.sampled_from([1.0, 2.0])))
    net.touch()
    for link in data.draw(st.lists(st.sampled_from(links), max_size=3, unique_by=id)):
        net.set_link_up(link.a, link.b, False)
    for name in data.draw(st.lists(st.sampled_from(names), max_size=2, unique=True)):
        net.set_node_up(name, False)

    reference = PairwiseRoutes(net)
    pairs = data.draw(
        st.lists(
            st.tuples(st.sampled_from(names), st.sampled_from(names)).filter(
                lambda p: p[0] != p[1]
            ),
            min_size=1,
            max_size=3 * n,
        )
    )
    for src, dst in pairs:
        want = reference.hops(src, dst)
        if want is None:
            with pytest.raises(NetworkError):
                net.path(src, dst)
            continue
        got = net.path(src, dst).hops
        assert len(got) == len(want) and all(g is w for g, w in zip(got, want))
        back = net.path(dst, src).hops
        assert all(b is w for b, w in zip(back, reversed(want)))


# -- dp_chain: shared prefixes + memos vs memoize=False vs exhaustive --------------


class _UnprunedCost(DeploymentCost):
    """``DeploymentCost`` with the root floor's chain skipping off."""

    supports_pruning = False


def _world(seed: int, n: int, algorithm: str, memoize: bool) -> Planner:
    net = generate_waxman(
        BriteConfig(n_nodes=n, seed=seed, insecure_fraction=0.4, trust_level_range=(1, 4))
    )
    names = net.node_names()
    net.node(names[0]).credentials["trust_level"] = 5  # a home for the MailServer
    net.node(names[-1]).credentials["trust_level"] = 4  # one full-client site
    net.touch()
    planner = Planner(
        SPEC, net, mail_translator(), objective=_Unpruned(),
        algorithm=algorithm, memoize=memoize, plan_cache=False,
    )
    planner.preinstall("MailServer", names[0])
    return planner


def _shape(plan):
    if plan is None:
        return None
    return (
        tuple((p.label(), p.reused) for p in plan.placements),
        tuple((l.client, l.server, l.interface) for l in plan.linkages),
        plan.score,
    )


def _crash(name):
    return lambda net: net.set_node_up(name, False)


def _restart(name):
    return lambda net: net.set_node_up(name, True)


def _perturb_link(index, latency_ms, flip_secure):
    def change(net):
        link = list(net.links())[index]
        link.latency_ms = latency_ms
        if flip_secure:
            link.secure = not link.secure
        net.touch()

    return change


def _recredential(name, trust_level):
    def change(net):
        net.node(name).credentials["trust_level"] = trust_level
        net.touch()

    return change


@st.composite
def _changes(draw, names, n_links):
    """A structure change between two requests (a function of the
    network), or nothing."""
    kind = draw(st.sampled_from(["crash", "restart", "link", "credential", None]))
    if kind is None:
        return None
    if kind == "link":
        return _perturb_link(
            draw(st.integers(0, n_links - 1)),
            float(draw(st.sampled_from([1.0, 5.0, 40.0]))),
            draw(st.booleans()),
        )
    # names[0] hosts the primary MailServer: without it nothing plans
    name = draw(st.sampled_from(names[1:]))
    if kind == "credential":
        return _recredential(name, draw(st.integers(1, 5)))
    return _crash(name) if kind == "crash" else _restart(name)


def _plan_through(seed: int, n: int, steps_for) -> None:
    """One long-lived memoized context, through commits and structure
    changes, across users, client requirements and objectives, must plan
    exactly what direct evaluation and a brand-new context plan: a pair
    row, installed-provider row or candidate table that outlived a
    structure change, or was shared between open states, request
    contexts or objectives, shows as a diff.  A commit installs the
    plan's fresh placements, so the next request sees other installed
    providers, checked against the rows the earlier requests built.

    A fourth memoized world plans each request under the pruning
    objectives (``ExpectedLatency``, ``DeploymentCost``), whose root
    floor lets ``dp_chain`` skip chains, against the same objectives
    with pruning off everywhere else: it must plan the same.

    ``steps_for(names, n_links)`` gives the steps: (client, user, client
    trust requirement, objectives in order as ``cheapest`` flags,
    commit the last plan?, structure change or None)."""
    fast = _world(seed, n, "dp_chain", memoize=True)
    slow = _world(seed, n, "dp_chain", memoize=False)
    renewed = _world(seed, n, "dp_chain", memoize=True)  # new context per request
    pruned = _world(seed, n, "dp_chain", memoize=True)
    complete = _world(seed, n, "exhaustive", memoize=True)
    worlds = (fast, slow, renewed, pruned, complete)
    names = fast.network.node_names()
    by_cost = _UnprunedCost(home_node=names[0])
    pruning = {True: DeploymentCost(home_node=names[0]), False: ExpectedLatency()}
    for client, user, trust, cheapest_flags, commit, change in steps_for(
        names, fast.network.n_links
    ):
        # Later requests see what earlier ones installed and reserved,
        # so early completions at installed providers are exercised.
        request = PlanRequest(
            "ClientInterface", client, context={"User": user}, max_units=4,
            required_properties={} if trust is None else {"TrustLevel": trust},
        )
        for cheapest in cheapest_flags:
            objective = by_cost if cheapest else None  # None: the planner's _Unpruned
            renewed.ctx = PlanningContext(SPEC, renewed.network, mail_translator())
            plan, _ = fast.run_search(request, objective=objective)
            for other in (slow, renewed):
                reference, _ = other.run_search(request, objective=objective)
                assert _shape(plan) == _shape(reference)
            skipping, _ = pruned.run_search(request, objective=pruning[cheapest])
            assert _shape(skipping) == _shape(plan)
            if plan is not None and not cheapest:
                # Unpruned exhaustive is complete over a superset of the chain space.
                optimum, _ = complete.run_search(request)
                assert optimum is not None
                assert optimum.score[0] <= plan.score[0] + 1e-9
        for planner in worlds:
            if commit and plan is not None:
                planner.commit(plan)
            if change is not None:
                change(planner.network)
    assert slow.ctx.cache_stats.compat_hits == 0  # memoize=False bypasses the memo


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), n=st.integers(4, 7), data=st.data())
def test_dp_chain_matches_unmemoized_and_is_bounded_by_exhaustive(seed, n, data):
    def steps_for(names, n_links):
        # Few clients, asked again after each change: a stale row only
        # shows when the same states are planned from twice.
        clients = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=2))
        return data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(clients),
                    st.sampled_from(["Alice", "Bob", "Mallory"]),  # Mallory: no account
                    st.sampled_from([None, 1, 4]),
                    # cheapest first, fastest first, or one of them: a row
                    # one objective built is then read under the other
                    st.sampled_from([(True, False), (False, True), (True,), (False,)]),
                    st.booleans(),
                    _changes(names, n_links),
                ),
                min_size=2,
                max_size=6,
            )
        )

    _plan_through(seed, n, steps_for)


#: MailClient's ACL, and two users outside it
USERS = ["Alice", "Bob", "Carol", "Dave", "Eve", "Mallory", "Zed"]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), n=st.integers(4, 7), data=st.data())
def test_dp_chain_tables_keyed_on_what_units_read_plan_like_unmemoized(seed, n, data):
    """One memoized context serves a stream of users, with context keys
    no condition reads (one of them unhashable) and a ``TrustLevel``
    that MailServer's and ViewMailServer's conditions do read: it must
    plan what direct evaluation plans.  Only the root MailClient reads
    ``User``, so no candidate table is split by it."""
    fast = _world(seed, n, "dp_chain", memoize=True)
    slow = _world(seed, n, "dp_chain", memoize=False)
    steps = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(fast.network.node_names()),
                st.sampled_from(USERS),
                st.sampled_from([None, "urgent", ["unhashable"]]),
                st.sampled_from([None, 2, 4]),
            ),
            min_size=1,
            max_size=8,
        )
    )
    for client, user, note, trust in steps:
        context = {"User": user}
        if note is not None:
            context["Note"] = note
        if trust is not None:
            context["TrustLevel"] = trust
        request = PlanRequest("ClientInterface", client, context=context, max_units=4)
        plan, _ = fast.run_search(request)
        reference, _ = slow.run_search(request)
        assert _shape(plan) == _shape(reference)
    for unit, _iface, read, _objective in fast.ctx.chain_tables().candidates:
        assert {prop for prop, _value in read} <= {"TrustLevel"}
        assert set(dict(read)) <= set(SPEC.unit(unit).condition_props)
    assert fast.ctx.cache_stats.uncacheable == 0


@pytest.mark.parametrize("seed, n", [(0, 6), (79, 5)])
def test_dp_chain_rows_are_not_shared_between_objectives(seed, n):
    """Worlds where a row one objective built, read under the other,
    changes a plan — rare among generated worlds, because a chain scores
    its five cheapest completions exactly and a wrong weight must push
    the best one out of them.  Three clients in turn, both objectives
    each, every plan committed."""
    _plan_through(
        seed,
        n,
        lambda names, _n_links: [
            (client, "Alice", None, flags, True, None)
            for client, flags in zip(names[1:4], [(True, False), (False, True), (True, False)])
        ],
    )


def test_dp_chain_root_floor_plans_what_the_unpruned_search_plans():
    """Figure 5: every client node and every user (three of them outside
    MailClient's ACL), before the first Figure 6 bind and after each:
    skipping the chains whose root floor lies above the incumbent must
    plan exactly what solving them all plans, reused roots included."""
    planners = []
    for objective in (ExpectedLatency(), _Unpruned()):
        topo = build_fig5_network(clients_per_site=2)
        planner = Planner(
            SPEC, topo.network, mail_translator(), objective=objective,
            algorithm="dp_chain", plan_cache=False,
        )
        planner.preinstall("MailServer", topo.server_node)
        planners.append(planner)
    clients = [node for nodes in topo.clients.values() for node in nodes]
    for site in (None, "newyork", "sandiego", "seattle"):
        if site is not None:
            request = PlanRequest(
                "ClientInterface", topo.clients[site][0], context={"User": SITE_USERS[site]}
            )
            for planner in planners:
                planner.commit(planner.run_search(request)[0])
        for client in clients:
            for user in USERS:
                request = PlanRequest("ClientInterface", client, context={"User": user})
                plan, reference = (planner.run_search(request)[0] for planner in planners)
                assert _shape(plan) == _shape(reference), (site, client, user)
