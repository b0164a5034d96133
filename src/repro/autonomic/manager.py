"""Actuation of autonomic scale decisions (the *plan* + *evolve* stages).

The :class:`AutonomicManager` closes the loop the ROADMAP calls
"load-driven replanning": the :class:`~repro.autonomic.policy.PolicyEngine`
detects sustained utilization-constraint violations in the telemetry
series, and the manager turns them into replanning rounds through the
existing :class:`~repro.smock.replanner.ReplanManager` machinery — the
same deploy / rebind / flush-then-retire / anti-entropy path that
liveness failover uses, so elastic scale-out inherits all of PR 5's
state-preservation guarantees for free.

How a scale round differs from a liveness round:

- the trigger is a synthetic ``ChangeEvent(kind="utilization")``, which
  the replanner treats as an *attribute* trigger: every binding replans
  from scratch (the previous structure is exactly what is in question);
- before planning, the manager writes each binding's *measured* offered
  rate (sampled from its proxy's request counter) into
  ``PlanRequest.request_rate`` — clamped to the chain's single-node
  capacity ceiling so one overloaded binding stays plannable — which
  makes the planner's condition 3 (:mod:`repro.planner.load`) reject
  saturated co-location and spread chains across nodes;
- as each binding's plan lands, the manager reserves its computed CPU
  and bandwidth demand on the network (and bumps the topology epoch),
  so later bindings in the same round bin-pack around earlier ones
  instead of piling onto the same "best" node;
- before an instance is retired, the manager drains its in-flight
  requests (bounded wait), then the replanner's normal retire path
  flushes coherence buffers upstream and the anti-entropy sweep
  reconciles any buffers reported lost — no acked update is dropped.

Determinism: decisions derive only from sampled series and seeded
simulation state; the manager schedules work via the simulator and
keeps no wall-clock or RNG state of its own.  With
``SmockRuntime(autonomic=False)`` nothing here is constructed and runs
are byte-identical to a build without this module.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Generator, List, Optional, Tuple

from ..network.monitor import ChangeEvent
from ..planner.load import compute_loads
from .policy import DEFAULT_RULES, PolicyEngine, ScaleSignal

__all__ = ["AutonomicEvent", "AutonomicManager"]

# All times in sim milliseconds.
#: minimum gap between successive scale-out actuations
COOLDOWN_MS = 4000.0
#: minimum gap between successive scale-in actuations (longer: the
#: cost of retiring too eagerly is a re-scale-out flap)
SCALE_IN_COOLDOWN_MS = 8000.0
#: planner headroom: planned rates target this fraction of capacity
HEADROOM = 0.75
#: offered-rate estimate: mean of the last N sampler ticks
RATE_WINDOW_TICKS = 4
#: floor on any planned per-binding rate (req/s)
MIN_RATE = 1.0
#: scale-out requires this much total measured offered load (req/s)
#: — saturation with no client traffic (e.g. bind-time planning work
#: burning the server node's CPU) is not a reason to add replicas
MIN_OFFERED_PER_S = 5.0
#: bounded wait for in-flight requests before retiring an instance
DRAIN_TIMEOUT_MS = 2000.0
#: poll interval while draining
DRAIN_POLL_MS = 50.0


@dataclass
class AutonomicEvent:
    """Record of one actuated autonomic decision (for tests/experiments)."""

    time_ms: float
    action: str
    rule: str
    series: str
    value: float
    #: per-client planned request rates written for this round
    planned_rates: Dict[str, float] = field(default_factory=dict)
    installed: List[str] = field(default_factory=list)
    retired: List[str] = field(default_factory=list)
    rebound: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form (summary ``events`` list and flight records)."""
        return {
            "time_ms": self.time_ms,
            "action": self.action,
            "rule": self.rule,
            "series": self.series,
            "value": self.value,
            "planned_rates": dict(self.planned_rates),
            "installed": list(self.installed),
            "retired": list(self.retired),
            "rebound": list(self.rebound),
        }


class AutonomicManager:
    """Wire the policy engine to the replanner over a runtime.

    Construction is cheap and side-effect-free; :meth:`attach` (called
    by ``SmockRuntime(autonomic=True)``) registers the sampler hooks.
    Bindings are registered on ``runtime.replanner`` (which
    :meth:`attach` guarantees exists), the one place they live.
    """

    def __init__(self, runtime: Any) -> None:
        self.runtime = runtime
        self.engine: Optional[PolicyEngine] = None
        self.events: List[AutonomicEvent] = []
        #: signals that were gated off (cooldown / already replanning)
        self.suppressed = 0
        self._last_fire: Dict[str, float] = {}
        self._pending: Optional[AutonomicEvent] = None
        self._mode: Optional[str] = None
        self._scaled_out = False
        self._baseline_views: Optional[int] = None
        #: most view replicas alive after any round (for scale-in grading)
        self.views_peak = 0
        #: per-proxy (prev_counter, rate-history) for offered-rate probes
        self._rate_state: Dict[int, Tuple[float, Deque[float]]] = {}
        #: planner reservations added by the previous round: (kind, name, amount)
        self._reserved: List[Tuple[str, str, float]] = []

    # -- wiring ---------------------------------------------------------------
    def attach(self) -> "AutonomicManager":
        """Register sampler hooks and claim the replanner's autonomic slot."""
        sampler = self.runtime.sampler
        if sampler is None:
            raise RuntimeError(
                "autonomic needs telemetry: construct the runtime with "
                "telemetry_interval_ms set (or let autonomic default it)"
            )
        sampler.add_scan(self._rate_scan)
        self.engine = PolicyEngine(sampler, DEFAULT_RULES)
        self.engine.attach()
        self.engine.subscribe(self._on_signal)
        self._ensure_replanner().autonomic = self
        return self

    @property
    def replanner(self) -> Any:
        return self._ensure_replanner()

    def _ensure_replanner(self) -> Any:
        """Reuse the runtime's replanner, or create a dormant one.

        The created :class:`~repro.network.monitor.NetworkMonitor` is
        *not started* — the autonomic loop triggers rounds itself, and a
        later ``enable_self_healing()`` call upgrades this replanner in
        place with a live monitor and failure detector.
        """
        existing = self.runtime.replanner
        if existing is not None:
            return existing
        from ..network.monitor import NetworkMonitor
        from ..smock.replanner import ReplanManager

        monitor = NetworkMonitor(self.runtime.sim, self.runtime.network)
        replanner = ReplanManager(self.runtime, monitor)
        self.runtime.monitor = monitor
        self.runtime.replanner = replanner
        return replanner

    # -- offered-rate sampling ------------------------------------------------
    def _rate_scan(self, now: float) -> None:
        """Per-tick sampler scan: instantaneous offered req/s per binding."""
        sampler = self.runtime.sampler
        interval = sampler.interval_ms
        for binding in self.runtime.replanner.bindings:
            proxy = binding.proxy
            count = float(proxy.requests)
            prev, history = self._rate_state.get(
                id(proxy), (count, deque(maxlen=RATE_WINDOW_TICKS))
            )
            rate = max(0.0, (count - prev) * 1000.0 / interval)
            history.append(rate)
            self._rate_state[id(proxy)] = (count, history)
            sampler.series(
                "autonomic.offered_per_s", client=binding.request.client_node
            ).append(now, rate)

    def _measured_rate(self, binding: Any) -> float:
        state = self._rate_state.get(id(binding.proxy))
        if not state or not state[1]:
            return 0.0
        history = state[1]
        return sum(history) / len(history)

    def _rate_cap(self, binding: Any) -> float:
        """Highest per-binding rate the planner can still place.

        Computed against the binding's *current* plan at unit rate: the
        binding's whole chain must fit under :data:`HEADROOM` of each node's
        total capacity and each component's declared capacity, so a
        measured rate beyond any single chain's ceiling is clamped and
        the overflow left to admission control to shed.
        """
        planner = self.runtime.primary.planner
        ctx = planner.ctx
        report = compute_loads(ctx, binding.plan, 1.0)
        cap = float("inf")
        for node_name, demand in report.node_cpu.items():
            if demand <= 0:
                continue
            capacity = ctx.network.node(node_name).cpu_capacity
            cap = min(cap, HEADROOM * capacity / demand)
        for idx, inbound in report.inbound.items():
            if inbound <= 0:
                continue
            unit = ctx.spec.unit(binding.plan.placements[idx].unit)
            cap = min(cap, HEADROOM * unit.behaviors.capacity / inbound)
        return cap if cap != float("inf") else MIN_RATE

    # -- signal actuation -----------------------------------------------------
    def _on_signal(self, signal: ScaleSignal) -> None:
        sim = self.runtime.sim
        now = sim.now
        metrics = self.runtime.obs.metrics
        metrics.inc("autonomic.signals", rule=signal.rule, action=signal.action)
        replanner = self.replanner
        if self._pending is not None or replanner._replanning:
            self.suppressed += 1
            return
        if signal.action == "scale_in" and not self._scaled_out:
            return
        cooldown = (
            SCALE_IN_COOLDOWN_MS if signal.action == "scale_in" else COOLDOWN_MS
        )
        last = self._last_fire.get(signal.action)
        if last is not None and now - last < cooldown:
            self.suppressed += 1
            metrics.inc("autonomic.cooldown_skips", action=signal.action)
            return
        if signal.action == "flush":
            self._last_fire[signal.action] = now
            metrics.inc("autonomic.actions", action="flush")
            self._record_flight(signal)
            sim.process(self._flush_round(signal), name="autonomic-flush")
            return
        if not replanner.bindings:
            return
        if signal.action == "scale_out":
            total = sum(self._measured_rate(b) for b in replanner.bindings)
            if total < MIN_OFFERED_PER_S:
                self.suppressed += 1
                metrics.inc("autonomic.idle_skips")
                return
        if self._baseline_views is None:
            self._baseline_views = self._view_count()
        self._last_fire[signal.action] = now
        metrics.inc("autonomic.actions", action=signal.action)
        event = AutonomicEvent(
            time_ms=now,
            action=signal.action,
            rule=signal.rule,
            series=signal.series,
            value=signal.value,
        )
        for binding in replanner.bindings:
            cap = self._rate_cap(binding)
            measured = self._measured_rate(binding)
            planned = max(MIN_RATE, min(measured, cap))
            binding.request.request_rate = planned
            event.planned_rates[binding.request.client_node] = round(planned, 3)
        self._pending = event
        self._mode = signal.action
        self._record_flight(signal)
        trigger = ChangeEvent(
            time_ms=now,
            kind="utilization",
            subject=signal.series,
            attribute=signal.rule,
            old=None,
            new=signal.value,
        )
        sim.process(replanner.replan_all(trigger=trigger), name="autonomic-replan")

    def _record_flight(self, signal: ScaleSignal) -> None:
        flight = self.runtime.sampler.flight
        if flight is not None:
            flight.record("autonomic", self.runtime.sim.now, data=signal.as_dict())

    def _flush_round(self, signal: ScaleSignal) -> Generator[Any, Any, None]:
        """Actuate a ``flush`` signal: push dirty replica buffers upstream."""
        flushed = yield from self.runtime.primary.flush_dirty()
        metrics = self.runtime.obs.metrics
        if flushed:
            metrics.inc("autonomic.flushed_replicas", flushed)
        self.events.append(
            AutonomicEvent(
                time_ms=self.runtime.sim.now,
                action="flush",
                rule=signal.rule,
                series=signal.series,
                value=signal.value,
            )
        )

    # -- replanner round hooks ------------------------------------------------
    def on_round_start(self, trigger: Optional[ChangeEvent]) -> None:
        """Release the previous round's capacity reservations.

        Runs at the head of *every* replanning round while attached (the
        round will re-reserve per binding as plans land), so liveness
        rounds and autonomic rounds stay consistent with one ledger.
        """
        network = self.runtime.network
        if not self._reserved:
            return
        for kind, name, amount in self._reserved:
            if kind == "node":
                network.node(name).reserved_cpu -= amount
            else:
                network.link_named(name).reserved_mbps -= amount
        self._reserved.clear()
        network.touch_reservations()

    def on_binding_planned(self, binding: Any, plan: Any) -> None:
        """Reserve the planned chain's demand so later bindings in the
        same round bin-pack around it (condition 3 sees the load)."""
        rate = binding.request.request_rate
        if rate <= 0:
            return
        planner = self.runtime.primary.planner
        network = self.runtime.network
        report = compute_loads(planner.ctx, plan, rate)
        for node_name, demand in report.node_cpu.items():
            if demand <= 0:
                continue
            network.node(node_name).reserved_cpu += demand
            self._reserved.append(("node", node_name, demand))
        for link_name, mbps in report.link_mbps.items():
            if mbps <= 0:
                continue
            network.link_named(link_name).reserved_mbps += mbps
            self._reserved.append(("link", link_name, mbps))
        network.touch_reservations()

    def drain_instance(self, instance: Any) -> Generator[Any, Any, None]:
        """Bounded wait for an instance's in-flight requests to finish.

        Live migration step 1: the proxy has already been rebound to the
        new placement, so no *new* requests arrive here; we wait (up to
        :data:`DRAIN_TIMEOUT_MS`) for requests already past admission to
        complete before the retire path flushes and uninstalls.
        """
        sim = self.runtime.sim
        if not instance.inflight:
            return
        start = sim.now
        deadline = start + DRAIN_TIMEOUT_MS
        while instance.inflight > 0 and sim.now < deadline:
            yield sim.timeout(DRAIN_POLL_MS)
        metrics = self.runtime.obs.metrics
        metrics.observe("autonomic.drain_wait_ms", sim.now - start)
        if instance.inflight > 0:
            metrics.inc("autonomic.drain_timeouts")

    def on_round_end(self, event: Any) -> None:
        """Fold the round's results into the pending autonomic event."""
        pending = self._pending
        mode = self._mode
        self._pending = None
        self._mode = None
        self.views_peak = max(self.views_peak, self._view_count())
        if pending is None:
            return
        pending.installed = list(event.installed)
        pending.retired = list(event.retired)
        pending.rebound = list(event.rebound)
        self.events.append(pending)
        metrics = self.runtime.obs.metrics
        if mode == "scale_out":
            if event.installed:
                self._scaled_out = True
                metrics.inc("autonomic.scale_out.installed", len(event.installed))
        elif mode == "scale_in":
            if event.retired:
                metrics.inc("autonomic.scale_in.retired", len(event.retired))
            if (
                self._baseline_views is not None
                and self._view_count() <= self._baseline_views
            ):
                self._scaled_out = False
        flight = self.runtime.sampler.flight
        if flight is not None:
            flight.record(
                "autonomic_round", self.runtime.sim.now, data=pending.as_dict()
            )

    # -- helpers --------------------------------------------------------------
    def _view_count(self) -> int:
        bundle = self.runtime.primary
        count = 0
        for instance in bundle.instances.values():
            unit = bundle.spec.unit(instance.unit.name)
            if unit.is_view:
                count += 1
        # Keep the peak current even on runs where no replan round ever
        # fires (on_round_end is the other updater) — summaries read it.
        if count > self.views_peak:
            self.views_peak = count
        return count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<AutonomicManager events={len(self.events)} "
            f"scaled_out={self._scaled_out} suppressed={self.suppressed}>"
        )
