"""Counters and histograms — the numeric half of observability.

Metrics are identified by ``(name, labels)``; labels are free-form
key/value pairs (``metrics.inc("planner.pruned", 3, algorithm="dp_chain")``).
Histograms keep raw observations (capped) and summarize with exact
percentiles over what was kept, which is plenty for the repository's
benchmark scales.

A disabled registry (``MetricsRegistry(enabled=False)``) turns every
mutation into an early return, so instrumentation can stay inline on
warm paths.  Truly hot loops (the simulator's dispatch loop) should
instead grab a metric handle once and call ``inc`` on it directly.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = ["Counter", "Histogram", "MetricsRegistry", "percentile"]

#: raw observations kept per histogram; count/sum/min/max stay exact beyond it
HISTOGRAM_CAP = 100_000

LabelKey = Tuple[Tuple[str, Any], ...]


def _key(name: str, labels: Mapping[str, Any]) -> Tuple[str, LabelKey]:
    return (name, tuple(sorted(labels.items())))


def _format_key(name: str, labels: LabelKey) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def percentile(sorted_values: List[float], q: float) -> float:
    """Exact percentile (nearest-rank) over pre-sorted values.

    Total: an empty input yields 0.0 (no observations means no latency,
    the same convention as ``Monitor.percentile``), and a single element
    is every percentile of itself — callers never need to guard.
    """
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values), max(1, math.ceil(q * len(sorted_values))))
    return sorted_values[rank - 1]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0

    def inc(self, n: float = 1) -> None:
        self.value += n


class Histogram:
    """Distribution of observations with percentile summaries."""

    __slots__ = ("name", "labels", "count", "sum", "min", "max", "_values")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._values: List[float] = []

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._values) < HISTOGRAM_CAP:
            self._values.append(value)

    def summary(self) -> Dict[str, float]:
        if self.count == 0:
            return {"count": 0}
        ordered = sorted(self._values)
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.sum / self.count,
            "min": self.min,
            "max": self.max,
            "p50": percentile(ordered, 0.50),
            "p90": percentile(ordered, 0.90),
            "p99": percentile(ordered, 0.99),
        }


class MetricsRegistry:
    """Process-local registry of named, labeled metrics."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}

    # -- handle accessors (create on first use) -----------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        key = _key(name, labels)
        c = self._counters.get(key)
        if c is None:
            c = self._counters[key] = Counter(name, key[1])
        return c

    def histogram(self, name: str, **labels: Any) -> Histogram:
        key = _key(name, labels)
        h = self._histograms.get(key)
        if h is None:
            h = self._histograms[key] = Histogram(name, key[1])
        return h

    def windowed_histogram(self, name: str, **labels: Any) -> "Any":
        """Handle accessor for a log-bucket windowed histogram (see
        :class:`repro.obs.timeseries.WindowedHistogram`).

        Lives in the same ``_histograms`` table as plain histograms —
        ``snapshot()``/``render()`` treat both uniformly via
        ``summary()`` — but supports per-interval rotation by the
        telemetry sampler.  A name may be one kind or the other, not
        both: requesting a windowed handle for an existing plain
        histogram raises rather than silently discarding observations.
        """
        from .timeseries import WindowedHistogram

        key = _key(name, labels)
        h = self._histograms.get(key)
        if h is None:
            h = self._histograms[key] = WindowedHistogram(name, key[1])
        elif not isinstance(h, WindowedHistogram):
            raise TypeError(
                f"{_format_key(name, key[1])} already exists as a plain Histogram"
            )
        return h

    # -- one-shot mutation helpers ------------------------------------------
    def inc(self, name: str, n: float = 1, **labels: Any) -> None:
        if not self.enabled:
            return
        self.counter(name, **labels).inc(n)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        if not self.enabled:
            return
        self.histogram(name, **labels).observe(value)

    # -- export -------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """A JSON-serializable dump of every metric's current state."""
        return {
            "counters": {
                _format_key(name, labels): c.value
                for (name, labels), c in sorted(self._counters.items())
            },
            "histograms": {
                _format_key(name, labels): h.summary()
                for (name, labels), h in sorted(self._histograms.items())
            },
        }

    def render(self) -> str:
        """Human-readable metrics summary (the ``--metrics`` output)."""
        lines: List[str] = []
        if self._counters:
            lines.append("counters:")
            for (name, labels), c in sorted(self._counters.items()):
                lines.append(f"  {_format_key(name, labels):52s} {c.value:g}")
        if self._histograms:
            lines.append("histograms:")
            for (name, labels), h in sorted(self._histograms.items()):
                s = h.summary()
                if s["count"] == 0:
                    lines.append(f"  {_format_key(name, labels):52s} (empty)")
                    continue
                lines.append(
                    f"  {_format_key(name, labels):52s} "
                    f"n={s['count']} mean={s['mean']:.3f} p50={s['p50']:.3f} "
                    f"p90={s['p90']:.3f} p99={s['p99']:.3f} max={s['max']:.3f}"
                )
        return "\n".join(lines) if lines else "(no metrics recorded)"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MetricsRegistry counters={len(self._counters)} "
            f"histograms={len(self._histograms)}>"
        )
