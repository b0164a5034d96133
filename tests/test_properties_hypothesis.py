"""Property-based tests (hypothesis) on core data structures and
invariants: the value algebra, modification rules, crypto round trips,
the simulation kernel, routing, the coherence directory, and the
planner's constraint guarantees.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.coherence import CoherenceDirectory, CountPolicy, Update
from repro.network import BriteConfig, Network, generate_waxman
from repro.services.mail import build_mail_spec
from repro.services.mail.crypto import decrypt, derive_key, encrypt
from repro.sim import Resource, Simulator
from repro.spec import ANY, OneOf, ValueRange, satisfies
from repro.spec.rules import ModificationRule, PropertyModificationRule

# -- value algebra -----------------------------------------------------------

values = st.one_of(
    st.booleans(), st.integers(-100, 100), st.text(max_size=5), st.just(ANY)
)


@given(values)
def test_any_satisfies_everything(v):
    assert satisfies(ANY, v)
    assert satisfies(v, ANY)


@given(st.integers(-50, 50))
def test_exact_match_is_reflexive(v):
    assert satisfies(v, v)


@given(st.integers(-20, 20), st.integers(-20, 20), st.integers(-40, 40))
def test_range_membership_consistent(lo, hi, v):
    if lo > hi:
        lo, hi = hi, lo
    r = ValueRange(lo, hi)
    assert satisfies(r, v) == (lo <= v <= hi)


@given(st.sets(st.integers(-20, 20), min_size=1, max_size=6), st.integers(-20, 20))
def test_oneof_membership_consistent(vals, probe):
    s = OneOf(vals)
    assert satisfies(s, probe) == (probe in vals)


@given(st.integers(-20, 20), st.integers(-20, 20))
def test_at_least_at_most_are_duals(req, actual):
    assert satisfies(req, actual, "at_least") == (actual >= req)
    assert satisfies(req, actual, "at_most") == (actual <= req)
    # exactly one of (>=, <=) can be false
    assert satisfies(req, actual, "at_least") or satisfies(req, actual, "at_most")


@given(values, values)
def test_none_actual_only_satisfies_any(req, env):
    if req is ANY:
        assert satisfies(req, None)
    else:
        assert not satisfies(req, None)


# -- modification rules -----------------------------------------------------

bools_or_any = st.one_of(st.booleans(), st.just(ANY))

#: Figure 4's rule, as the mail service declares it
CONFIDENTIALITY = build_mail_spec().rules.rule_for("Confidentiality")


@given(bools_or_any, st.one_of(st.booleans(), st.just(None)))
def test_figure4_never_upgrades_confidentiality(in_v, env_v):
    """Fundamental security invariant of Figure 4: the rule can never
    turn a non-confidential input into a confidential output, nor vouch
    confidentiality in a non-secure environment."""
    out = CONFIDENTIALITY.apply(in_v, env_v)
    if out is True:
        assert in_v in (True, ANY)
        assert env_v is True


@given(st.integers(0, 100), st.integers(0, 100))
def test_computed_rule_output_applies(a, b):
    rule = PropertyModificationRule(
        "X", rules=(ModificationRule(ANY, ANY, lambda i, e: min(i, e)),)
    )
    assert rule.apply(a, b) == min(a, b)


# -- crypto -------------------------------------------------------------------

@given(st.binary(max_size=512), st.text(min_size=1, max_size=10))
def test_crypto_roundtrip(plaintext, key_seed):
    key = derive_key(key_seed)
    assert decrypt(key, encrypt(key, plaintext)) == plaintext


@given(st.binary(min_size=1, max_size=64))
def test_ciphertext_never_contains_long_plaintext_prefix(plaintext):
    key = derive_key("k")
    ct = encrypt(key, plaintext)
    if len(plaintext) >= 8:
        assert plaintext not in ct


# -- simulation kernel ---------------------------------------------------------

@given(st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=30))
def test_events_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []

    def proc(d):
        yield sim.timeout(d)
        fired.append(sim.now)

    for d in delays:
        sim.process(proc(d))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert sim.now == max(delays)


@given(
    st.lists(st.floats(0.1, 50.0, allow_nan=False), min_size=1, max_size=12),
    st.integers(1, 3),
)
def test_resource_conservation(durations, capacity):
    """Total busy time equals the sum of durations; makespan is bounded
    by list-scheduling limits."""
    sim = Simulator()
    r = Resource(sim, capacity)
    done = []

    def worker(d):
        yield from r.use(d)
        done.append(sim.now)

    for d in durations:
        sim.process(worker(d))
    sim.run()
    assert len(done) == len(durations)
    total = sum(durations)
    lower = max(max(durations), total / capacity)
    assert sim.now >= lower - 1e-9
    assert sim.now <= total + 1e-9


# -- routing -------------------------------------------------------------------

@settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10_000), st.integers(5, 25))
def test_waxman_routing_triangle_inequality(seed, n):
    """Dijkstra optimality: path(a,c) <= path(a,b) + path(b,c)."""
    net = generate_waxman(BriteConfig(n_nodes=n, seed=seed))
    names = net.node_names()
    a, b, c = names[0], names[n // 2], names[-1]
    ab = net.path(a, b).latency_ms
    bc = net.path(b, c).latency_ms
    ac = net.path(a, c).latency_ms
    assert ac <= ab + bc + 1e-9


@settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10_000))
def test_paths_are_symmetric_in_latency(seed):
    net = generate_waxman(BriteConfig(n_nodes=15, seed=seed))
    names = net.node_names()
    fwd = net.path(names[0], names[-1])
    rev = net.path(names[-1], names[0])
    assert fwd.latency_ms == pytest.approx(rev.latency_ms)
    assert fwd.secure == rev.secure
    assert fwd.bandwidth_mbps == pytest.approx(rev.bandwidth_mbps)


# -- coherence directory --------------------------------------------------------

@given(
    st.lists(st.integers(1, 50), min_size=1, max_size=60),
    st.integers(1, 200),
)
def test_directory_units_conserved(multiplicities, limit):
    """Units buffered == units drained + units still pending, and a
    flush is signalled exactly when pending reaches the policy limit."""

    class Host:
        def on_invalidate(self, updates):
            pass

    d = CoherenceDirectory()
    d.register_replica("F", ("V", ()), Host(), CountPolicy(limit))
    drained_units = 0
    for m in multiplicities:
        flush = d.on_local_update(0, Update("op", {}, multiplicity=m), 0.0)
        pending = d.entry(0).pending_units
        assert flush == (pending >= limit)
        if flush:
            batch, units = d.drain(0)
            assert units == sum(u.multiplicity for u in batch)
            drained_units += units
            assert d.entry(0).pending_units == 0
    total = sum(multiplicities)
    assert drained_units + d.entry(0).pending_units == total


# -- planner invariants -----------------------------------------------------------

@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["newyork", "sandiego", "seattle"]), st.integers(0, 4))
def test_planner_output_always_satisfies_constraints(site, user_idx):
    """Whatever the inputs, a returned plan passes all three conditions."""
    from repro.experiments.topology_fig5 import build_fig5_network
    from repro.planner import (
        DeploymentState,
        ExpectedLatency,
        PlanningContext,
        PlanRequest,
        check_loads,
        plan_dp_chain,
    )
    from repro.services.mail import DEFAULT_USERS, build_mail_spec, mail_translator

    spec = build_mail_spec()
    topo = build_fig5_network(clients_per_site=2)
    ctx = PlanningContext(spec, topo.network, mail_translator())
    state = DeploymentState()
    state.add(ctx.instantiate(spec.unit("MailServer"), topo.server_node, {}))
    request = PlanRequest(
        "ClientInterface",
        topo.clients[site][0],
        context={"User": DEFAULT_USERS[user_idx]},
    )
    plan = plan_dp_chain(ctx, request, state, ExpectedLatency())
    assert plan is not None
    for p in plan.placements:
        if not p.reused:
            assert ctx.installable(spec.unit(p.unit), p.node, request.context)
    for link in plan.linkages:
        client, server = plan.placements[link.client], plan.placements[link.server]
        required = dict(
            ctx.resolved_requires(spec.unit(client.unit), client.node)
        )[link.interface]
        impl = server.implemented_props(link.interface)
        env = ctx.link_env(client.node, server.node)[0]
        assert ctx.properties_compatible(required, impl, env)
    assert check_loads(ctx, plan, 10.0).ok
