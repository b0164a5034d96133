"""Dynamic replanning on network change (paper §6, first limitation).

The shipped planner assumes node/link properties are fixed for the
lifetime of a deployment.  §6 sketches the fix: integrate a monitoring
tool (Remos-like; see :mod:`repro.network.monitor`), feed observed
changes to the planner, and let it decide "whether a new deployment
(either incremental or complete) is called for", taking care that
"service redeployment needs to preserve state compatibility between the
two configurations".

:class:`ReplanManager` implements that loop:

1. it tracks every active client binding (proxy + original request),
   each with the service it binds to;
2. a monitor subscription fires on any observed change; a replanning
   process is scheduled (debounced to one per observation burst);
3. each binding is re-planned by its own service's planner against the
   updated network; bindings whose optimal plan changed are redeployed
   *incrementally* — new placements install first, the proxy is
   re-bound, and obsolete instances are retired only after their
   coherence buffers have been flushed upstream (state preservation);
4. placements shared with unaffected bindings survive untouched.

Failover extension: when the observed change is a *node-death*
detection (a :class:`FailureEvent` from the heartbeat detector), the
round first reconciles runtime registries with reality — instances on
the dead host are unregistered, their un-flushed coherence buffers are
accounted as lost updates and stashed for the round's anti-entropy
replay — and then replans around the dead node, which the planner's
installability gate already excludes.  Recovery time (crash instant to
rebound proxies) lands in the ``failover.recovery_ms`` histogram.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from ..network import NetworkError
from ..network.monitor import ChangeEvent, NetworkMonitor
from ..planner import DeploymentPlan, DeploymentState, PlanningError, PlanRequest
from ..planner.load import compute_loads
from ..sim import FaultError
from .proxy import ServiceProxy

__all__ = ["ReplanManager", "ReplanEvent"]


@dataclass
class ReplanEvent:
    """Record of one replanning round (for experiments/tests)."""

    time_ms: float
    trigger: Optional[ChangeEvent]
    rebound: List[str] = field(default_factory=list)  # client nodes re-deployed
    installed: List[str] = field(default_factory=list)  # new placement labels
    retired: List[str] = field(default_factory=list)  # removed placement labels
    failures: List[str] = field(default_factory=list)  # clients left unservable
    #: labels of dead-host instances reconciled away before planning
    reconciled: List[str] = field(default_factory=list)
    #: True if the round was skipped because another was in progress
    deferred: bool = False


@dataclass
class _Binding:
    proxy: ServiceProxy
    request: PlanRequest
    plan: DeploymentPlan
    #: the hosted service (``ServiceBundle``) the binding belongs to
    bundle: Any


class ReplanManager:
    """Keeps deployments optimal as the network changes.

    ``incremental`` enables the planner fast path for *liveness*
    triggers (node/link death or recovery): each binding's new plan is
    seeded from the surviving placements of its previous plan (see
    :mod:`repro.planner.incremental`), so only the subtree around the
    failed host is re-solved.  Attribute triggers (a link turning
    secure, a credential change) always replan from scratch — there the
    previous structure is what must be reconsidered.  With
    ``incremental=False`` every round replans from scratch, matching the
    pre-fast-path behavior exactly.

    A round reserves each replanned binding's demand at its
    ``request.request_rate`` (when above 0) on the network, so later
    bindings in the same round bin-pack around it; the next round
    releases those reservations first.  :meth:`track_access` records a
    binding at rate 0, which reserves nothing until the autonomic
    manager writes a measured rate into it.
    """

    def __init__(
        self, runtime: Any, monitor: NetworkMonitor, incremental: bool = True
    ) -> None:
        self.runtime = runtime
        self.monitor = monitor
        self.incremental = incremental
        self.bindings: List[_Binding] = []
        self.events: List[ReplanEvent] = []
        #: optional :class:`~repro.autonomic.manager.AutonomicManager`
        #: collaborator; when set, rounds keep a failed binding's chain,
        #: drain instances before retiring them and report to it at the
        #: end.  ``None`` keeps every round byte-identical to the
        #: pre-autonomic code.
        self.autonomic: Any = None
        #: what the last round's plans hold (:meth:`Network.reserve`)
        self._held: List[Tuple[str, str, float]] = []
        self._scheduled = False
        self._replanning = False
        self._rerun_trigger: Optional[ChangeEvent] = None
        #: client_node -> sim time its outage began (crash instant when
        #: known, else when the binding first became unservable)
        self._outage_since: Dict[str, float] = {}
        monitor.subscribe(self._on_change)

    # -- tracking -----------------------------------------------------------
    def track(self, proxy: ServiceProxy, request: PlanRequest, plan: DeploymentPlan) -> None:
        """Register an active binding for future replanning."""
        self.bindings.append(_Binding(proxy, request, plan, proxy.root.bundle))

    def track_access(self, proxy: ServiceProxy, access: Any) -> None:
        """Convenience: track from a GenericServer access record."""
        request = PlanRequest(
            interface=proxy.interface,
            client_node=access.client_node,
            context=dict(access.context),
        )
        self.track(proxy, request, access.plan)

    @property
    def busy(self) -> bool:
        """True while a round is in flight (a new one would defer)."""
        return self._replanning

    # -- change handling ----------------------------------------------------
    def _on_change(self, change: ChangeEvent) -> None:
        if self._scheduled:
            return  # debounce: one replan per observation burst
        self._scheduled = True
        sim = self.runtime.sim

        def kick() -> None:
            self._scheduled = False
            sim.process(self.replan_all(trigger=change), name="replan")

        sim.call_at(sim.now, kick)

    # -- the replanning round ---------------------------------------------------
    def replan_all(
        self, trigger: Optional[ChangeEvent] = None
    ) -> Generator[Any, Any, ReplanEvent]:
        """Process generator: recompute every binding, redeploy deltas.

        Re-entrancy: a round that starts while another is mid-flight
        (replanning yields to the simulator while deploying) defers —
        the in-progress round re-runs once more when it finishes, so the
        late trigger is never lost and the two rounds cannot interleave
        their deploy/retire steps.
        """
        if self._replanning:
            self._rerun_trigger = trigger or self._rerun_trigger or _RERUN_SENTINEL
            event = ReplanEvent(
                time_ms=self.runtime.sim.now, trigger=trigger, deferred=True
            )
            self.events.append(event)
            return event
        self._replanning = True
        try:
            event = yield from self._replan_round(trigger)
        finally:
            self._replanning = False
        if self._rerun_trigger is not None:
            rerun = self._rerun_trigger
            self._rerun_trigger = None
            self.runtime.sim.process(
                self.replan_all(
                    trigger=None if rerun is _RERUN_SENTINEL else rerun
                ),
                name="replan-rerun",
            )
        return event

    def _replan_round(
        self, trigger: Optional[ChangeEvent]
    ) -> Generator[Any, Any, ReplanEvent]:
        """One round: the primary service, then every other service with
        a tracked binding, each replanned by its own planner."""
        runtime = self.runtime
        event = ReplanEvent(time_ms=runtime.sim.now, trigger=trigger)
        runtime.network.release(self._held)
        self._held = []

        # Control-plane takeover: the coherence directory's own host
        # died.  Ground truth (is the directory host down *now*) rather
        # than the trigger event: the round's trigger is only the first
        # event of a detection burst, and the directory host's death may
        # arrive debounced behind a sibling event.  Only a runtime given
        # a ``directory_host`` has one (and journals its directory);
        # without it a node death never takes the directory along.
        crashed_directory_host = runtime.directory_host
        if (
            crashed_directory_host is not None
            and runtime.transport.node(crashed_directory_host).up
        ):
            crashed_directory_host = None

        # Ground-truth crash instant behind this round's trigger, if the
        # trigger is a death detection — anchors recovery-time tracking.
        trigger_crash: Optional[float] = None
        if (
            trigger is not None
            and trigger.kind == "node"
            and trigger.attribute == "up"
            and not trigger.new
        ):
            trigger_crash = getattr(
                runtime.transport.node(trigger.subject), "crashed_at_ms", None
            )

        for i, bundle in enumerate(runtime.bundles()):
            bindings = [b for b in self.bindings if b.bundle is bundle]
            # The primary's round runs with no binding tracked too: it
            # still reconciles dead hosts and retires untracked chains.
            if bindings or i == 0:
                yield from self._replan_service(
                    bundle, bindings, trigger, trigger_crash, crashed_directory_host, event
                )

        self.events.append(event)
        self._observe_round(event)
        if self.autonomic is not None:
            self.autonomic.on_round_end(event)
        return event

    def _replan_service(
        self,
        bundle: Any,
        bindings: List[_Binding],
        trigger: Optional[ChangeEvent],
        trigger_crash: Optional[float],
        crashed_directory_host: Optional[str],
        event: ReplanEvent,
    ) -> Generator[Any, Any, None]:
        """One service's part of a round: replan ``bindings`` (those
        tracked on ``bundle``) and record what changed in ``event``."""
        runtime = self.runtime
        planner = bundle.planner
        autonomic = self.autonomic

        # Rebuild a dead host's directory from its journal on a surviving
        # node *before* reconciling, so the rest of the round —
        # report_lost, retirement flushes, anti-entropy — runs against
        # the successor.
        if crashed_directory_host is not None and bundle.coherence.journal is not None:
            self._takeover_directory(bundle, crashed_directory_host)

        # Failover preamble: drop dead-host instances from the runtime's
        # registries before planning, so the planner state seeded below
        # reflects reality and retirement never routes traffic to them.
        self._reconcile_failed_instances(bundle, event)

        # Re-plan each binding against a state seeded with primaries and
        # (incrementally) the kept/new placements of earlier bindings —
        # later bindings can reuse what earlier ones keep.
        state = DeploymentState()
        for placement in planner.state.placements():
            if bundle.is_primary(placement.key):
                state.add(placement)

        # Liveness triggers (a host died or came back) patch around the
        # change: seed each binding's search from its previous plan's
        # survivors.  Attribute triggers replan from scratch.
        seed_from_previous = (
            self.incremental
            and trigger is not None
            and trigger.kind in ("node", "link")
            and trigger.attribute == "up"
        )
        installed_keys = set(bundle.instances.keys())

        new_plans: List[Optional[DeploymentPlan]] = []
        for binding in bindings:
            try:
                if seed_from_previous:
                    plan = planner.replan_incremental(
                        binding.request,
                        binding.plan,
                        state=state,
                        installed_keys=installed_keys,
                    )
                else:
                    plan, _cached = planner.run_search(binding.request, state=state)
            except (PlanningError, NetworkError):
                # E.g. the client's own node vanished: unservable, not
                # a reason to abort the round for everyone else.
                plan = None
            if plan is None:
                event.failures.append(binding.request.client_node)
                self._note_outage(binding.request.client_node, trigger_crash)
                new_plans.append(None)
                continue
            new_plans.append(plan)
            for placement in plan.placements:
                state.add(placement)
            rate = binding.request.request_rate
            if rate > 0:
                report = compute_loads(planner.ctx, plan, rate)
                self._held += runtime.network.reserve(
                    report.node_cpu, report.link_mbps
                )

        # Compute the new desired placement-key set.
        desired: Set[Tuple] = set()
        for binding, plan in zip(bindings, new_plans):
            if plan is not None:
                desired.update(p.key for p in plan.placements)
            elif autonomic is not None:
                # Utilization rounds must not retire the still-live chain
                # of a binding whose replan failed (e.g. measured rates
                # momentarily exceed what condition 3 can place): keep
                # its current placements until a later round succeeds.
                desired.update(p.key for p in binding.plan.placements)
        for placement in planner.state.placements():
            if bundle.is_primary(placement.key):
                desired.add(placement.key)

        # Deploy changed bindings (install new placements, rebind proxies).
        for binding, plan in zip(bindings, new_plans):
            if plan is None:
                continue
            if self._same_structure(binding.plan, plan) and all(
                p.key in bundle.instances for p in plan.placements
            ):
                # Unchanged *and* fully installed.  The second clause
                # matters after failover reconciliation: the optimal plan
                # may have the same shape as before the crash, but its
                # instances were purged and must be re-installed.
                binding.plan = plan
                continue
            try:
                record = yield from runtime.deployer.execute(plan, bundle)
            except (PlanningError, NetworkError, FaultError):
                # The world changed under us mid-deploy (e.g. another
                # fault); leave this binding for the next round.
                event.failures.append(binding.request.client_node)
                self._note_outage(binding.request.client_node, trigger_crash)
                continue
            binding.proxy.rebind(record.root_instance)
            binding.plan = plan
            event.rebound.append(binding.request.client_node)
            event.installed.extend(i.label for i in record.new_instances)
            self._note_recovery(binding.request.client_node, trigger_crash)

        # Retire instances no longer referenced by any binding, flushing
        # replica state upstream first (state preservation).
        current_keys = list(bundle.instances.keys())
        for key in current_keys:
            if key in desired:
                continue
            instance = bundle.instances[key]
            if autonomic is not None:
                # Live migration: proxies are already rebound, so only
                # in-flight requests remain — drain them (bounded) before
                # flushing state and uninstalling.
                yield from autonomic.drain_instance(instance)
            yield from bundle.flush(instance)
            bundle.uninstall(key)
            event.retired.append(instance.label)

        # Anti-entropy: replay recovered buffers, re-converge replicas.
        yield from self._anti_entropy(bundle, trigger)

        # Rebuild the planner's deployment state to match reality.
        planner.state = state

    # -- anti-entropy ------------------------------------------------------------
    def _anti_entropy(
        self, bundle: Any, trigger: Optional[ChangeEvent]
    ) -> Generator[Any, Any, None]:
        """Re-converge coherence state after the round's registry changes.

        Two steps: (1) on a *recovery* trigger (a node or link coming
        back up), flush every dirty live replica upstream so state
        diverged during the partition propagates now instead of waiting
        out its flush policy; (2) replay any lost buffers stashed by
        ``report_lost`` at their primaries
        (:meth:`CoherenceDirectory.reconcile`).
        """
        directory = bundle.coherence
        recovery = (
            trigger is not None
            and trigger.kind in ("node", "link")
            and trigger.attribute == "up"
            and bool(trigger.new)
        )
        if recovery:
            yield from bundle.flush_dirty()
        if directory.has_lost_buffers:
            reports = directory.reconcile(self.runtime.sim.now)
            metrics = self.runtime.obs.metrics
            if metrics.enabled and reports:
                metrics.inc("coherence.reconcile.passes")

    # -- directory takeover -------------------------------------------------------
    def _takeover_directory(self, bundle: Any, crashed_host: str) -> None:
        """Move ``bundle``'s coherence directory to a surviving host.

        The successor rebuilds registrations, per-store version-vector
        frontiers, and outstanding anti-entropy stashes from the
        append-only journal (see :func:`repro.coherence.journal.
        recover_directory`); surviving replicas re-report their volatile
        flush state.  The swap is transparent to components — they reach
        the directory through ``bundle.coherence`` on every access — and
        the same round's anti-entropy re-drives any recovered stashes.
        """
        from ..coherence.journal import recover_directory

        runtime = self.runtime
        old = bundle.coherence
        new_host = self._elect_directory_host(exclude=crashed_host)
        recovered, report = recover_directory(old.journal, old, runtime.sim.now)
        old.journal.recoveries += 1
        bundle.coherence = recovered
        runtime.directory_host = new_host
        runtime.directory_takeovers.append(
            {
                "time_ms": runtime.sim.now,
                "crashed_host": crashed_host,
                "new_host": new_host,
                "report": report,
            }
        )
        metrics = runtime.obs.metrics
        metrics.inc("failover.directory_takeovers")
        crashed_at = getattr(
            runtime.transport.node(crashed_host), "crashed_at_ms", None
        )
        if crashed_at is not None:
            metrics.observe(
                "failover.directory_mttr_ms", runtime.sim.now - crashed_at
            )

    def _elect_directory_host(self, exclude: str) -> str:
        """Deterministic successor: the (durable) generic-server host if
        alive, else the first live node in name order."""
        runtime = self.runtime
        candidates = [runtime.server_node] + sorted(
            node.name for node in runtime.network.nodes()
        )
        for name in candidates:
            if name != exclude and runtime.transport.node(name).up:
                return name
        return runtime.server_node  # nothing is up; park on the primary

    # -- failover reconciliation -------------------------------------------------
    def _reconcile_failed_instances(self, bundle: Any, event: ReplanEvent) -> None:
        """Purge ``bundle``'s registries of instances whose host is dead.

        An instance is gone if fault injection flagged it ``failed`` or
        the failure detector declared its node down.  Dirty coherence
        buffers on such replicas are *lost updates* — acked to clients,
        never propagated — and are reported as such, then stashed for
        anti-entropy replay (:meth:`ServiceBundle.lose`), rather than
        silently discarded.
        """
        network = self.runtime.network
        for key, instance in list(bundle.instances.items()):
            if instance.failed or not network.node(key[1]).up:
                bundle.lose(key)
                event.reconciled.append(instance.label)

    def _observe_round(self, event: ReplanEvent) -> None:
        """Failover metrics for rounds triggered by a death detection."""
        trigger = event.trigger
        if trigger is None or trigger.kind != "node" or trigger.attribute != "up":
            return
        metrics = self.runtime.obs.metrics
        if trigger.new:  # recovery detection round
            metrics.inc("failover.recovery_replans")
            if event.rebound:
                metrics.inc("failover.rebound_clients", len(event.rebound))
            return
        metrics.inc("failover.replans")
        if event.rebound:
            metrics.inc("failover.rebound_clients", len(event.rebound))
        if event.failures:
            metrics.inc("failover.unservable_clients", len(event.failures))
        detection_ms = getattr(trigger, "detection_ms", None)
        if detection_ms:
            metrics.observe("failover.detection_ms", detection_ms)

    def _note_outage(self, client_node: str, trigger_crash: Optional[float]) -> None:
        """First unservable sighting of a binding starts its outage clock."""
        start = trigger_crash if trigger_crash is not None else self.runtime.sim.now
        self._outage_since.setdefault(client_node, start)

    def _note_recovery(self, client_node: str, trigger_crash: Optional[float]) -> None:
        """A successful rebind closes the outage, if one was open.

        A rebind with no open outage (same-round failover onto an
        alternate host, before the client ever went unservable) measures
        from the triggering crash instead, when known.
        """
        started = self._outage_since.pop(client_node, trigger_crash)
        if started is not None:
            self.runtime.obs.metrics.observe(
                "failover.recovery_ms", self.runtime.sim.now - started
            )

    # -- helpers ----------------------------------------------------------------
    @staticmethod
    def _same_structure(a: DeploymentPlan, b: DeploymentPlan) -> bool:
        return {p.key for p in a.placements} == {p.key for p in b.placements}


#: placeholder trigger meaning "re-run requested while busy, cause unknown"
_RERUN_SENTINEL = ChangeEvent(
    time_ms=-1.0, kind="replan", subject="rerun", attribute="pending",
    old=None, new=None,
)
