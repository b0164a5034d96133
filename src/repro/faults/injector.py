"""Executes a :class:`FaultPlan` against a live runtime.

The injector mutates only *ground truth*: live :class:`SimNode` /
:class:`SimLink` state and (for partitions) the analytic topology that
stands in for IP rerouting.  It never touches the planner's believed
node liveness and never cleans up runtime registries — stale bundle
instances, directory entries and proxy bindings persist until the
failure detector notices and the replanner reconciles, so the window
between fault and recovery is exactly the detection latency the
experiment is measuring.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..smock.transport import FaultHook
from .plan import FaultAction, FaultKind, FaultPlan

__all__ = ["FaultInjector"]


@dataclass
class _Window:
    """One active message-fault window on a link."""

    kind: str
    link: Tuple[str, str]
    at_ms: float
    until_ms: float
    magnitude: float


class _InjectorHook(FaultHook):
    """Transport hook applying the injector's active fault windows."""

    def __init__(self, injector: "FaultInjector") -> None:
        self.injector = injector

    def on_hop(
        self, src: str, dst: str, hop_a: str, hop_b: str, size_bytes: int
    ) -> Optional[Any]:
        return self.injector._hop_verdict(hop_a, hop_b)

    def on_message(self, src: str, dst: str, size_bytes: int) -> Tuple[str, ...]:
        return self.injector._message_verdicts(src, dst)


class FaultInjector:
    """Schedules and applies fault actions on the simulator."""

    def __init__(self, runtime: Any, plan: Optional[FaultPlan] = None) -> None:
        self.runtime = runtime
        self.plan = plan or FaultPlan()
        self._rng = random.Random(self.plan.seed)
        self._windows: List[_Window] = []
        #: the same windows by link key, each list in opening order
        self._windows_by_link: Dict[Tuple[str, str], List[_Window]] = {}
        self._hook_installed = False
        #: ground-truth crash instants, by node (for recovery-time metrics)
        self.crash_times: Dict[str, float] = {}
        self.applied: List[FaultAction] = []

    # -- scheduling ---------------------------------------------------------
    def schedule(self, plan: Optional[FaultPlan] = None) -> None:
        """Validate the plan and register every action with the simulator."""
        if plan is not None:
            self.plan = plan
            self._rng = random.Random(plan.seed)
        self.plan.validate()
        sim = self.runtime.sim
        for action in self.plan.sorted_actions():
            sim.call_at(action.at_ms, lambda a=action: self.apply(a))

    def apply(self, action: FaultAction) -> None:
        """Apply one action immediately (also usable directly in tests)."""
        kind = action.kind
        if kind == FaultKind.CRASH:
            self.crash_node(action.node)  # type: ignore[arg-type]
        elif kind == FaultKind.RESTART:
            self.restart_node(action.node)  # type: ignore[arg-type]
        elif kind == FaultKind.PARTITION:
            self.partition_link(*action.link)  # type: ignore[misc]
        elif kind == FaultKind.HEAL:
            self.heal_link(*action.link)  # type: ignore[misc]
        elif kind == FaultKind.SPLIT:
            self.split_network(action.groups, action.until_ms)  # type: ignore[arg-type]
        else:  # drop / delay / duplicate / reorder / corrupt window
            self._open_window(action)
        self.applied.append(action)
        self.runtime.obs.metrics.inc(
            "faults.injected", 1, kind=kind, subject=action.subject
        )

    # -- node faults --------------------------------------------------------
    def crash_node(self, name: str) -> None:
        """Fail-stop ``name``: volatile state gone, instances dead.

        Live component instances are flagged ``failed`` *before* the
        node clears its install table, and coherence daemons are told to
        stop — but bundle registries, directory entries and client
        proxies are deliberately left stale for the detector/replanner
        to find.
        """
        node = self.runtime.transport.node(name)
        for instance in list(node.installed.values()):
            instance.failed = True
            stop = getattr(instance, "stop_daemon", None)
            if stop is not None:
                stop()
        node.crash()
        self.crash_times[name] = self.runtime.sim.now

    def restart_node(self, name: str) -> None:
        """Bring a crashed node back — empty, like a rebooted host."""
        self.runtime.transport.node(name).restart()

    # -- link faults --------------------------------------------------------
    def partition_link(self, a: str, b: str) -> None:
        """Sever a link: analytic routing avoids it at once (IP-style
        rerouting) and in-flight transfers on the live link fail."""
        self.runtime.network.set_link_up(a, b, False)
        self.runtime.transport.link(a, b).fail()

    def heal_link(self, a: str, b: str) -> None:
        self.runtime.network.set_link_up(a, b, True)
        self.runtime.transport.link(a, b).heal()

    def split_network(
        self,
        groups: Tuple[Tuple[str, ...], ...],
        until_ms: Optional[float] = None,
    ) -> List[Tuple[str, str]]:
        """Multi-link network split: sever every link whose endpoints
        fall in different groups (nodes in no group keep all links).
        When ``until_ms`` is given the severed links auto-heal then.
        Returns the severed (a, b) pairs."""
        side = {name: i for i, group in enumerate(groups) for name in group}
        severed: List[Tuple[str, str]] = []
        for link in self.runtime.network.links():
            sa, sb = side.get(link.a), side.get(link.b)
            if sa is None or sb is None or sa == sb or not link.up:
                continue
            self.partition_link(link.a, link.b)
            severed.append((link.a, link.b))
        if until_ms is not None and severed:
            sim = self.runtime.sim

            def _heal(pairs=tuple(severed)) -> None:
                for a, b in pairs:
                    self.heal_link(a, b)

            sim.call_at(until_ms, _heal)
        return severed

    # -- message faults -----------------------------------------------------
    def _open_window(self, action: FaultAction) -> None:
        window = _Window(
            kind=action.kind,
            link=tuple(sorted(action.link)),  # type: ignore[arg-type]
            at_ms=action.at_ms,
            until_ms=float(action.until_ms),  # type: ignore[arg-type]
            magnitude=action.magnitude,
        )
        self._windows.append(window)
        self._windows_by_link.setdefault(window.link, []).append(window)
        if not self._hook_installed:
            self.runtime.transport.fault_hook = _InjectorHook(self)
            self._hook_installed = True

    def _hop_verdict(self, hop_a: str, hop_b: str) -> Optional[Any]:
        """Drop or delay verdict of the windows open on one hop.

        A hop with no window costs one lookup; a link's windows are
        read in the order they opened, so the plan RNG draws in the
        same order as a scan over every window would."""
        windows = self._windows_by_link.get(
            (hop_a, hop_b) if hop_a <= hop_b else (hop_b, hop_a)
        )
        if windows is None:
            return None
        now = self.runtime.sim.now
        delay = 0.0
        for w in windows:
            if not (w.at_ms <= now < w.until_ms):
                continue
            if w.kind == FaultKind.DROP:
                if self._rng.random() < w.magnitude:
                    return "drop"
            elif w.kind == FaultKind.DELAY:
                delay += w.magnitude
        return delay or None

    def _message_verdicts(self, src: str, dst: str) -> Tuple[Any, ...]:
        """Message-level verdicts for one request crossing ``src -> dst``.

        Walks the current route and matches duplicate/reorder/corrupt
        windows against each hop; each matching window draws from the
        plan RNG.  Returns a tuple of ``"duplicate"`` / ``"corrupt"`` /
        ``("reorder", hold_ms)`` verdicts (empty in the common case).
        """
        active = [
            w for w in self._windows
            if w.kind in (FaultKind.DUPLICATE, FaultKind.REORDER, FaultKind.CORRUPT)
        ]
        if not active:
            return ()
        now = self.runtime.sim.now
        try:
            hops = self.runtime.network.path(src, dst).hops
        except Exception:
            return ()  # disconnected: the transport reports that itself
        keys = {tuple(sorted((h.a, h.b))) for h in hops}
        verdicts: List[Any] = []
        for w in active:
            if w.link not in keys or not (w.at_ms <= now < w.until_ms):
                continue
            if w.kind == FaultKind.REORDER:
                # Hold the message back a random slice of the window's
                # magnitude so later traffic overtakes it.
                hold = self._rng.random() * w.magnitude
                if hold > 0.0:
                    verdicts.append(("reorder", hold))
            elif self._rng.random() < w.magnitude:
                verdicts.append(w.kind)
        return tuple(verdicts)
