"""Sim-clock telemetry: ring-buffered time series, windowed histograms,
and the :class:`TelemetrySampler` that drives both.

Everything in :mod:`repro.obs.metrics` is a cumulative end-of-run
snapshot; this module adds the *when*.  A :class:`TelemetrySampler` is a
lightweight periodic callback on the simulator clock that scrapes
registered probes (queue depths, utilizations, counter rates) into
:class:`TimeSeries` rings and rotates every :class:`WindowedHistogram`
in the registry, so per-interval p50/p99/p999 are available alongside
the cumulative summaries.

Knob discipline (see ARCHITECTURE.md "telemetry pipeline"): sampling is
**pull-based** — probes read state the simulation already maintains
(``Resource.queue_length``, link byte counters), so a runtime without a
sampler (``telemetry_interval_ms=None``) adds no work to any
instrumented layer; the only push-side accounting (per-link in-flight
bytes) lives behind ``RuntimeTransport.enable_telemetry()`` and is never
switched on unless a sampler attaches.  The sampler's tick *does*
schedule simulator events, so enabling it changes the event count —
byte-identical simulated results are pinned with telemetry off
(``tests/integration/test_telemetry_determinism.py``).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
)

from .metrics import LabelKey, MetricsRegistry, _format_key, _key

__all__ = ["TimeSeries", "WindowedHistogram", "TelemetrySampler"]

#: ring capacity per time series (at the default 500 ms interval
#: this holds the last 6 simulated minutes)
SERIES_CAPACITY = 720

#: closed windows kept per windowed histogram
WINDOW_CAPACITY = 240

# -- log buckets ------------------------------------------------------------
# Fixed geometric boundaries shared by every windowed histogram: factor
# 1.25 bounds the relative quantile error at 25% per bucket step, and
# 160 buckets span ~1e-3 ms .. ~2e12 ms — wider than any simulated
# latency this repository produces.
_BUCKET_FACTOR = 1.25
_BUCKET_MIN = 1e-3
_N_BUCKETS = 160
_BOUNDS: List[float] = [
    _BUCKET_MIN * _BUCKET_FACTOR**i for i in range(_N_BUCKETS)
]


def _bucket_value(index: int) -> float:
    """Representative (upper-bound) value of bucket ``index``."""
    if index < _N_BUCKETS:
        return _BOUNDS[index]
    return _BOUNDS[-1] * _BUCKET_FACTOR


def _bucket_percentile(counts: Mapping[int, int], total: int, q: float) -> float:
    """Nearest-rank percentile over a sparse bucket-count mapping."""
    if total <= 0:
        return 0.0
    rank = max(1, math.ceil(q * total))
    acc = 0
    for index in sorted(counts):
        acc += counts[index]
        if acc >= rank:
            return _bucket_value(index)
    return _bucket_value(max(counts))  # pragma: no cover - defensive


class TimeSeries:
    """A bounded ring of ``(t_ms, value)`` samples."""

    __slots__ = ("name", "labels", "_samples")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self._samples: Deque[Tuple[float, float]] = deque(maxlen=SERIES_CAPACITY)

    def append(self, t_ms: float, value: float) -> None:
        self._samples.append((t_ms, value))

    def samples(self) -> List[Tuple[float, float]]:
        return list(self._samples)

    def values(self) -> List[float]:
        return [v for _t, v in self._samples]

    def latest(self) -> Optional[Tuple[float, float]]:
        return self._samples[-1] if self._samples else None

    @property
    def capacity(self) -> int:
        return self._samples.maxlen or 0

    def __len__(self) -> int:
        return len(self._samples)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TimeSeries {_format_key(self.name, self.labels)} "
            f"n={len(self._samples)}>"
        )


class _Window:
    """One closed sampling window of a :class:`WindowedHistogram`."""

    __slots__ = ("start_ms", "end_ms", "count", "sum", "counts")

    def __init__(
        self,
        start_ms: float,
        end_ms: float,
        count: int,
        total: float,
        counts: Dict[int, int],
    ) -> None:
        self.start_ms = start_ms
        self.end_ms = end_ms
        self.count = count
        self.sum = total
        self.counts = counts

    def percentile(self, q: float) -> float:
        return _bucket_percentile(self.counts, self.count, q)

    def summary(self) -> Dict[str, float]:
        return {
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "count": self.count,
            "mean": self.sum / self.count if self.count else 0.0,
            "p50": self.percentile(0.50),
            "p99": self.percentile(0.99),
            "p999": self.percentile(0.999),
        }


class WindowedHistogram:
    """Fixed log-bucket histogram with rolling windows.

    Replaces the sorted-raw-list :class:`~repro.obs.metrics.Histogram`
    on hot per-op paths: ``observe`` is O(log buckets) with bounded
    memory, cumulative count/sum/min/max stay exact, and percentiles are
    bucket-upper-bound approximations (≤ 25% relative error at factor
    1.25).  Windows are closed externally — the
    :class:`TelemetrySampler` calls :meth:`rotate` once per sampling
    interval — so with no sampler attached the whole run is one open
    window and only cumulative summaries are available.

    Duck-types ``Histogram`` for registry export: :meth:`summary`
    returns the same keys (plus ``p999``), so ``snapshot()``/``render()``
    need no special cases.
    """

    __slots__ = (
        "name",
        "labels",
        "count",
        "sum",
        "min",
        "max",
        "_total",
        "_current",
        "_cur_count",
        "_cur_sum",
        "_cur_start",
        "_windows",
    )

    def __init__(
        self,
        name: str,
        labels: LabelKey = (),
    ) -> None:
        self.name = name
        self.labels = labels
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._total: Dict[int, int] = {}
        self._current: Dict[int, int] = {}
        self._cur_count = 0
        self._cur_sum = 0.0
        self._cur_start = 0.0
        self._windows: Deque[_Window] = deque(maxlen=WINDOW_CAPACITY)

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        index = bisect_left(_BOUNDS, value)
        total = self._total
        total[index] = total.get(index, 0) + 1
        current = self._current
        current[index] = current.get(index, 0) + 1
        self._cur_count += 1
        self._cur_sum += value

    def rotate(self, now_ms: float) -> Optional[Dict[str, float]]:
        """Close the current window at ``now_ms``.

        Returns the closed window's summary, or ``None`` when nothing
        was observed since the last rotation (empty windows are not
        retained — a quiet interval costs no memory).
        """
        if self._cur_count == 0:
            self._cur_start = now_ms
            return None
        window = _Window(
            self._cur_start, now_ms, self._cur_count, self._cur_sum,
            self._current,
        )
        self._windows.append(window)
        self._current = {}
        self._cur_count = 0
        self._cur_sum = 0.0
        self._cur_start = now_ms
        return window.summary()

    def windows(self) -> List[_Window]:
        """Closed windows, oldest first; the open window is excluded."""
        return list(self._windows)

    def percentile(self, q: float) -> float:
        """Cumulative percentile, clamped into the exact [min, max]."""
        if self.count == 0:
            return 0.0
        value = _bucket_percentile(self._total, self.count, q)
        return min(max(value, self.min), self.max)

    def summary(self) -> Dict[str, float]:
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.sum / self.count,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
            "p999": self.percentile(0.999),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<WindowedHistogram {_format_key(self.name, self.labels)} "
            f"n={self.count} windows={len(self._windows)}>"
        )


class TelemetrySampler:
    """Periodic sim-clock scrape of probes into time series.

    Construction is free; :meth:`start` schedules the first tick.  Each
    tick reads every probe, runs every scan hook, rotates the registry's
    windowed histograms (so per-op p50/p99/p999 land in
    ``<hist>.p50``/``.p99``/``.p999`` series), optionally feeds the
    :class:`~repro.obs.flight.FlightRecorder`, and re-arms itself — but
    only while *other* events remain queued, so an otherwise-finished
    ``sim.run()`` still drains one interval after quiescence instead of
    spinning forever.
    """

    def __init__(
        self,
        sim: Any,
        metrics: Optional[MetricsRegistry] = None,
        interval_ms: float = 500.0,
        flight: Any = None,
    ) -> None:
        if not 0 < interval_ms < math.inf:  # also rejects NaN
            raise ValueError(
                f"interval_ms must be finite and > 0, got {interval_ms!r}"
            )
        self.sim = sim
        self.metrics = metrics
        self.interval_ms = float(interval_ms)
        self.flight = flight
        #: True while a tick is armed on the simulator
        self.active = False
        self.ticks = 0
        self._stopped = False
        self._series: Dict[Tuple[str, LabelKey], TimeSeries] = {}
        self._probes: List[Tuple[TimeSeries, Callable[[], Optional[float]]]] = []
        self._scans: List[Callable[[float], None]] = []

    # -- series and probe registration --------------------------------------
    def series(self, name: str, **labels: Any) -> TimeSeries:
        """Get-or-create the time series for ``(name, labels)``."""
        key = _key(name, labels)
        ts = self._series.get(key)
        if ts is None:
            ts = self._series[key] = TimeSeries(name, key[1])
        return ts

    def all_series(self) -> List[TimeSeries]:
        return [self._series[k] for k in sorted(self._series)]

    def add_probe(
        self, name: str, fn: Callable[[], Optional[float]], **labels: Any
    ) -> TimeSeries:
        """Register ``fn`` to be read every tick into a series.

        ``fn`` returns the sample value, or ``None`` to skip this tick.
        """
        ts = self.series(name, **labels)
        self._probes.append((ts, fn))
        return ts

    def add_scan(self, fn: Callable[[float], None]) -> None:
        """Register a per-tick hook ``fn(now_ms)`` that may append to
        several series (used for dynamically appearing instances)."""
        self._scans.append(fn)

    def add_counter_rate(
        self, series_name: str, counter_name: str, **labels: Any
    ) -> None:
        """Sample the per-second rate of every counter named
        ``counter_name`` (summed across label sets)."""
        metrics = self.metrics
        if metrics is None:
            return
        state = {"prev": 0.0}
        interval = self.interval_ms

        def probe() -> float:
            total = sum(
                c.value
                for (name, _labels), c in metrics._counters.items()
                if name == counter_name
            )
            delta = total - state["prev"]
            state["prev"] = total
            return delta * 1000.0 / interval

        self.add_probe(series_name, probe, **labels)

    def watch_resource(
        self, resource: Any, name: str = "resource.queue_depth", **labels: Any
    ) -> None:
        """Sample a :class:`~repro.sim.resources.Resource`'s queue depth."""
        self.add_probe(name, lambda: float(resource.queue_length), **labels)

    def watch_utilization(
        self, resource: Any, name: str = "resource.utilization", **labels: Any
    ) -> None:
        """Sample a resource's per-interval utilization (busy-area delta
        over interval × capacity), not the cumulative average."""
        state = {"area": 0.0, "t": None}
        capacity = resource.capacity

        def probe() -> Optional[float]:
            area = resource.busy_area()
            now = resource.sim.now
            prev_area, prev_t = state["area"], state["t"]
            state["area"], state["t"] = area, now
            if prev_t is None or now <= prev_t:
                return None
            return (area - prev_area) / ((now - prev_t) * capacity)

        self.add_probe(name, probe, **labels)

    # -- standard runtime wiring ---------------------------------------------
    def attach_runtime(self, runtime: Any) -> "TelemetrySampler":
        """Register the standard probe set over a ``SmockRuntime``:
        per-node CPU queue depth and utilization, per-link utilization
        and in-flight bytes, per-component service time, coherence
        dirty-buffer depth, and retry/timeout/replan rates."""
        transport = runtime.transport
        transport.enable_telemetry()
        runtime.records_service_times = True
        for name, node in transport.nodes.items():
            self.watch_resource(node.cpu, "node.cpu_queue_depth", node=name)
            self.watch_utilization(node.cpu, "node.cpu_utilization", node=name)
        inflight = transport.link_inflight
        for link in transport.links.values():
            label = link.name
            self.watch_utilization(
                link._tx[link.a], "link.utilization", link=label, direction="ab"
            )
            self.watch_utilization(
                link._tx[link.b], "link.utilization", link=label, direction="ba"
            )
            self.add_probe(
                "link.inflight_bytes",
                (lambda nm: lambda: float(inflight.get(nm, 0)))(label),
                link=label,
            )
        self.add_scan(self._make_coherence_scan(runtime))
        self.add_scan(self._make_component_scan(runtime))
        self.add_counter_rate("smock.retry_rate", "smock.retries")
        self.add_counter_rate("smock.timeout_rate", "smock.request_timeouts")
        self.add_counter_rate("failover.replan_rate", "failover.replans")
        return self

    def _make_coherence_scan(self, runtime: Any) -> Callable[[float], None]:
        def scan(now: float) -> None:
            for bundle in runtime.bundles():
                dirty = sum(
                    entry.pending_units
                    for entry in bundle.coherence._replicas.values()
                )
                self.series(
                    "coherence.dirty_units", service=bundle.name
                ).append(now, float(dirty))

        return scan

    def _make_component_scan(self, runtime: Any) -> Callable[[float], None]:
        """Per-component service time: mean of the service times an
        instance collected since the previous tick, which the scan takes
        (instances appear dynamically as deployments land, so this
        rescans rather than pre-registering)."""

        def scan(now: float) -> None:
            for bundle in runtime.bundles():
                for inst in bundle.instances.values():
                    fresh = inst.service_times
                    if not fresh:
                        continue
                    inst.service_times = []
                    mean = sum(fresh) / len(fresh)
                    self.series(
                        "component.service_ms",
                        unit=inst.unit.name,
                        node=inst.node.name,
                    ).append(now, mean)

        return scan

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "TelemetrySampler":
        """Arm the first tick; a no-op when already active."""
        if self.active:
            return self
        self._stopped = False
        self.active = True
        self.sim.call_after(self.interval_ms, self._tick)
        return self

    def stop(self) -> None:
        self._stopped = True
        self.active = False

    def _tick(self) -> None:
        if self._stopped:
            return
        now = self.sim.now
        self.ticks += 1
        sampled: Dict[str, float] = {}
        for ts, fn in self._probes:
            value = fn()
            if value is None:
                continue
            ts.append(now, value)
            sampled[_format_key(ts.name, ts.labels)] = value
        for scan in self._scans:
            scan(now)
        self._rotate_windowed(now, sampled)
        if self.flight is not None:
            self.flight.record("sample", now, data=sampled)
        # Re-arm only while someone else still has events queued: when
        # the sampler would be the only thing keeping the clock alive,
        # let the run drain (sim.run() terminates one interval after
        # quiescence instead of never).
        if self.sim.events_pending:
            self.sim.call_after(self.interval_ms, self._tick)
        else:
            self.active = False

    def _rotate_windowed(self, now: float, sampled: Dict[str, float]) -> None:
        metrics = self.metrics
        if metrics is None:
            return
        for (name, labels), hist in list(metrics._histograms.items()):
            if not isinstance(hist, WindowedHistogram):
                continue
            summary = hist.rotate(now)
            if summary is None:
                continue
            label_map = dict(labels)
            for q in ("p50", "p99", "p999"):
                series = self.series(f"{name}.{q}", **label_map)
                series.append(now, summary[q])
                sampled[_format_key(series.name, series.labels)] = summary[q]

    # -- export --------------------------------------------------------------
    def snapshot(self) -> Dict[str, List[Tuple[float, float]]]:
        """JSON-serializable dump: formatted key → list of samples."""
        return {
            _format_key(name, labels): self._series[(name, labels)].samples()
            for (name, labels) in sorted(self._series)
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TelemetrySampler interval={self.interval_ms}ms "
            f"ticks={self.ticks} "
            f"series={len(self._series)}>"
        )
