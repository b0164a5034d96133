"""Remos-style network monitoring (paper §6, first limitation).

The paper's planner assumes a static network; §6 proposes integrating a
monitoring tool (Remos [8]) that "obtains relevant information about the
state of the network and communicates it to network-aware applications
through a well-defined and uniform set of APIs", letting the planner
decide whether a redeployment is called for.

:class:`NetworkMonitor` provides that API against the simulated network
(the planner reads current attributes from the :class:`Network` itself):

- *subscriptions* — callbacks fired when an observed attribute changes;
- *scripted perturbations* — experiments inject changes at simulated
  times (a link slows down, a node loses trust) and the monitor reports
  them on its next polling round, modeling real monitoring lag.

A poll scans only when :attr:`Network.version` has moved since the
last scan; otherwise it returns ``[]`` at once.  That is exact because
every attribute a poll reads (link latency, bandwidth, security and
liveness, node CPU capacity and credentials) changes only through a
call that moves the version: :meth:`Network.touch`,
:meth:`Network.set_link_up` or :meth:`perturb_link` /
:meth:`perturb_node`.  A direct attribute write must be followed by
:meth:`Network.touch` — the contract the planner's caches already
rely on — or no poll will see it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..sim import Simulator
from .topology import Network

__all__ = ["ChangeEvent", "NetworkMonitor"]


@dataclass(frozen=True)
class ChangeEvent:
    """One observed attribute change."""

    time_ms: float
    kind: str  # "link" or "node"
    subject: str  # link name "a<->b" or node name
    attribute: str
    old: Any
    new: Any


Subscriber = Callable[[ChangeEvent], None]


class NetworkMonitor:
    """Polls a :class:`Network` inside a simulation and reports changes.

    ``poll_interval_ms`` models monitoring lag: a perturbation applied
    between polls is only observed (and subscribers notified) at the next
    poll boundary, as with a real Remos deployment.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        poll_interval_ms: float = 1000.0,
    ) -> None:
        if not poll_interval_ms > 0:  # NaN too
            raise ValueError("poll_interval_ms must be positive")
        self.sim = sim
        self.network = network
        self.poll_interval_ms = poll_interval_ms
        self._subscribers: List[Subscriber] = []
        self._snapshot: Dict[Tuple[str, str, str], Any] = {}
        #: ``network.version`` when :attr:`_snapshot` was last scanned
        self._snapshot_version = -1
        self.history: List[ChangeEvent] = []
        self._running = False
        self._take_snapshot(initial=True)

    # -- subscriptions ------------------------------------------------------
    def subscribe(self, fn: Subscriber) -> None:
        """Call ``fn(change)`` for every change observed at a poll."""
        self._subscribers.append(fn)

    # -- perturbation injection ---------------------------------------------
    def perturb_link(
        self,
        a: str,
        b: str,
        latency_ms: Optional[float] = None,
        bandwidth_mbps: Optional[float] = None,
        secure: Optional[bool] = None,
    ) -> None:
        """Mutate link attributes now; observed at the next poll."""
        link = self.network.link(a, b)
        if latency_ms is not None:
            link.latency_ms = latency_ms
        if bandwidth_mbps is not None:
            link.bandwidth_mbps = bandwidth_mbps
        if secure is not None:
            link.secure = secure
        self.network.touch()

    def perturb_node(
        self,
        name: str,
        cpu_capacity: Optional[float] = None,
        credentials: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Mutate node attributes now; observed at the next poll."""
        node = self.network.node(name)
        if cpu_capacity is not None:
            node.cpu_capacity = cpu_capacity
        if credentials:
            node.credentials.update(credentials)
        self.network.touch()

    def schedule_perturbation(self, at_ms: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` (which should call perturb_*) at simulated time."""
        self.sim.call_at(at_ms, fn)

    # -- external event injection (failure detectors) -------------------------
    def report(self, change: ChangeEvent) -> None:
        """Inject an externally-observed change (e.g. a heartbeat-based
        failure detection) into the subscriber stream.

        The change is folded into the monitor's snapshot first, so a
        subsequent poll does not re-observe (and re-dispatch) the same
        fact — one observed transition, one event, regardless of how
        many observation channels saw it.
        """
        key = (change.kind, change.subject, change.attribute)
        if self._snapshot.get(key) == change.new:
            return  # already known: duplicate observation, suppressed
        self._snapshot[key] = change.new
        self._dispatch([change])

    # -- polling loop ---------------------------------------------------------
    def start(self) -> None:
        """Begin periodic polling as a simulation process."""
        if self._running:
            return
        self._running = True
        self.sim.process(self._poll_loop(), name="network-monitor")

    def stop(self) -> None:
        self._running = False

    def _poll_loop(self):
        while self._running:
            yield self.sim.timeout(self.poll_interval_ms)
            self.poll()

    def poll(self) -> List[ChangeEvent]:
        """One observation round; returns (and dispatches) changes.

        Changes are *coalesced* within the round: at most one event per
        (kind, subject, attribute), carrying the first old value and the
        last new one, and events whose old and new values are equal (a
        perturbation that round-tripped inside the observation window)
        are dropped entirely — subscribers never fire on a no-op.  An
        unchanged ``network.version`` means nothing polled has changed,
        so the round scans nothing (see the module notes).
        """
        if self.network.version == self._snapshot_version:
            return []
        changes = self._coalesce(self._take_snapshot(initial=False))
        self._dispatch(changes)
        return changes

    def _dispatch(self, changes: List[ChangeEvent]) -> None:
        for change in changes:
            self.history.append(change)
            for fn in list(self._subscribers):
                fn(change)

    @staticmethod
    def _coalesce(changes: List[ChangeEvent]) -> List[ChangeEvent]:
        merged: Dict[Tuple[str, str, str], ChangeEvent] = {}
        for change in changes:
            key = (change.kind, change.subject, change.attribute)
            prior = merged.get(key)
            if prior is None:
                merged[key] = change
            else:  # keep first old, last new
                merged[key] = ChangeEvent(
                    change.time_ms, change.kind, change.subject,
                    change.attribute, prior.old, change.new,
                )
        return [c for c in merged.values() if c.old != c.new]

    def _take_snapshot(self, initial: bool) -> List[ChangeEvent]:
        now = self.sim.now
        self._snapshot_version = self.network.version
        current: Dict[Tuple[str, str, str], Any] = {}
        for link in self.network.links():
            base = ("link", link.name)
            current[(*base, "latency_ms")] = link.latency_ms
            current[(*base, "bandwidth_mbps")] = link.bandwidth_mbps
            current[(*base, "secure")] = link.secure
            current[(*base, "up")] = link.up
        for node in self.network.nodes():
            base = ("node", node.name)
            current[(*base, "cpu_capacity")] = node.cpu_capacity
            # Node *liveness* is deliberately not polled: a crashed host
            # is observable only through missed heartbeats (see
            # repro.faults.detector), never by inspecting sim state.
            for key, val in node.credentials.items():
                current[(*base, f"credential:{key}")] = val

        changes: List[ChangeEvent] = []
        if not initial:
            for key, new in current.items():
                old = self._snapshot.get(key)
                if old != new:
                    kind, subject, attribute = key
                    changes.append(
                        ChangeEvent(now, kind, subject, attribute, old, new)
                    )
        # Update, not replace: what report() folded in (node liveness,
        # service leases) is never polled and must outlive the round.
        self._snapshot.update(current)
        return changes
