"""Declarative threshold policies over telemetry series.

The policy engine is the *detect* stage of the autonomic loop
(monitor -> detect -> plan -> evolve, after Dearle et al.,
arXiv:1006.4730): it rides the :class:`~repro.obs.timeseries.TelemetrySampler`
tick as a scan hook, evaluates each :class:`ThresholdRule` against the
latest sample of every matching series, and emits a typed
:class:`ScaleSignal` once a breach has been *sustained* for the rule's
hysteresis window (``sustain`` consecutive ticks).  Cooldown between
actions is deliberately not handled here — the
:class:`~repro.autonomic.manager.AutonomicManager` owns actuation and
rate-limits it — so the engine keeps firing every tick while a
violation persists, which is exactly what a cooldown gate needs to see.

Determinism: series are scanned in the sampler's sorted order, streak
state is keyed by ``(rule, series)``, and nothing here reads wall
clocks or entropy — same seed, same samples, same signals.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "ScaleSignal",
    "ThresholdRule",
    "PolicyEngine",
    "DEFAULT_RULES",
]


@dataclass(frozen=True)
class ScaleSignal:
    """One detected constraint violation, ready for actuation.

    ``value`` is the worst offending sample (max for ``above`` rules,
    min for ``below``), ``series`` its formatted key, and ``sustained``
    how many consecutive ticks that series has been in breach.
    """

    time_ms: float
    action: str  # "scale_out" | "scale_in" | "flush"
    rule: str
    series: str
    value: float
    threshold: float
    sustained: int

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form (flight records and summary artifacts)."""
        return asdict(self)


@dataclass
class ThresholdRule:
    """A declarative utilization constraint.

    A rule matches every sampler series named ``series`` whose labels
    contain ``labels`` as a subset.  Each matching series keeps its own
    breach streak; the rule fires when, depending on ``aggregate``:

    - ``"any"``: at least one series has been in breach for ``sustain``
      consecutive ticks (hot-spot detection), or
    - ``"all"``: *every* fresh matching series is in breach and the
      slowest streak has reached ``sustain`` (quorum cool-down — used
      for scale-in so one busy node vetoes retirement).

    ``max_age_ticks`` bounds staleness: a series whose latest sample is
    older than ``max_age_ticks * interval_ms`` is ignored (it belongs
    to a retired instance or a dead node).
    """

    name: str
    series: str
    threshold: float
    action: str
    direction: str = "above"  # "above" | "below"
    sustain: int = 3
    aggregate: str = "any"  # "any" | "all"
    labels: Dict[str, str] = field(default_factory=dict)
    max_age_ticks: float = 2.5

    def breached(self, value: float) -> bool:
        """Whether one sampled value crosses the threshold (inclusive)."""
        if self.direction == "above":
            return value >= self.threshold
        return value <= self.threshold


#: The stock rule set used by ``SmockRuntime(autonomic=True)`` (see
#: DESIGN.md §8).  Scale-out triggers are ``any``-aggregated (one
#: saturated node is a violation); the scale-in trigger is
#: ``all``-aggregated over node utilization so retirement waits for the
#: whole fleet to go quiet.  Thresholds are tuned for the fig. 5 mail
#: topology under the open-loop load cells (100-cpu nodes, 32-deep
#: accept queues).
DEFAULT_RULES: List[ThresholdRule] = [
    ThresholdRule(
        name="node-hot",
        series="node.cpu_utilization",
        threshold=0.90,
        action="scale_out",
        direction="above",
        sustain=3,
    ),
    ThresholdRule(
        name="queue-deep",
        series="node.cpu_queue_depth",
        threshold=16.0,
        action="scale_out",
        direction="above",
        sustain=2,
    ),
    ThresholdRule(
        name="op-p99-slow",
        series="smock.request_sim_ms.p99",
        threshold=1800.0,
        action="scale_out",
        direction="above",
        sustain=4,
    ),
    ThresholdRule(
        name="node-cold",
        series="node.cpu_utilization",
        threshold=0.45,
        action="scale_in",
        direction="below",
        sustain=8,
        aggregate="all",
    ),
    ThresholdRule(
        name="dirty-backlog",
        series="coherence.dirty_units",
        threshold=512.0,
        action="flush",
        direction="above",
        sustain=4,
    ),
]


class PolicyEngine:
    """Evaluate threshold rules once per sampler tick.

    Attach with :meth:`attach` (registers a sampler scan hook) and
    subscribe actuation callbacks with :meth:`subscribe`.  The engine
    never schedules simulator events of its own — when the sampler is
    disabled the engine is inert, preserving byte-identical runs.
    """

    def __init__(
        self,
        sampler: Any,
        rules: List[ThresholdRule],
    ) -> None:
        self.sampler = sampler
        self.rules = list(rules)
        self.signals: List[ScaleSignal] = []
        self.evaluations = 0
        self._listeners: List[Callable[[ScaleSignal], None]] = []
        self._streaks: Dict[Tuple[str, Tuple[str, Any]], int] = {}
        self._attached = False

    # -- wiring ---------------------------------------------------------------
    def attach(self) -> "PolicyEngine":
        """Hook the engine into the sampler's per-tick scan list."""
        if not self._attached:
            self.sampler.add_scan(self._scan)
            self._attached = True
        return self

    def subscribe(self, fn: Callable[[ScaleSignal], None]) -> None:
        """Register a listener called synchronously for every signal."""
        self._listeners.append(fn)

    # -- evaluation -----------------------------------------------------------
    def _matching(self, rule: ThresholdRule) -> List[Any]:
        required = rule.labels.items()
        out = []
        for ts in self.sampler.all_series():
            if ts.name != rule.series:
                continue
            if required:
                have = dict(ts.labels)
                if any(have.get(k) != v for k, v in required):
                    continue
            out.append(ts)
        return out

    def _scan(self, now: float) -> None:
        self.evaluations += 1
        interval = self.sampler.interval_ms
        for rule in self.rules:
            fired = self._evaluate(rule, now, interval)
            if fired is not None:
                self.signals.append(fired)
                for fn in self._listeners:
                    fn(fired)

    def _evaluate(
        self, rule: ThresholdRule, now: float, interval: float
    ) -> Optional[ScaleSignal]:
        max_age = rule.max_age_ticks * interval
        fresh = 0
        breaches: List[Tuple[float, str, int]] = []  # (value, key, streak)
        for ts in self._matching(rule):
            latest = ts.latest()
            if latest is None:
                continue
            t_ms, value = latest
            if now - t_ms > max_age:
                continue
            fresh += 1
            key = (rule.name, (ts.name, ts.labels))
            if rule.breached(value):
                streak = self._streaks.get(key, 0) + 1
                self._streaks[key] = streak
                breaches.append((value, _format(ts), streak))
            else:
                self._streaks.pop(key, None)
        if not fresh:
            return None
        if rule.aggregate == "all":
            if len(breaches) != fresh:
                return None
            if min(streak for _v, _k, streak in breaches) < rule.sustain:
                return None
            candidates = breaches
        else:
            candidates = [b for b in breaches if b[2] >= rule.sustain]
            if not candidates:
                return None
        if rule.direction == "above":
            value, key, streak = max(candidates, key=lambda b: (b[0], b[1]))
        else:
            value, key, streak = min(candidates, key=lambda b: (b[0], b[1]))
        return ScaleSignal(
            time_ms=now,
            action=rule.action,
            rule=rule.name,
            series=key,
            value=value,
            threshold=rule.threshold,
            sustained=streak,
        )


def _format(ts: Any) -> str:
    if not ts.labels:
        return str(ts.name)
    inner = ",".join(f"{k}={v}" for k, v in ts.labels)
    return f"{ts.name}{{{inner}}}"
