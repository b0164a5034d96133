"""Declarative SLOs evaluated against windowed telemetry.

A spec is a plain mapping, written as JSON (a file or an inline
string) or passed as a dict::

    {"name": "mail-default",
     "error_budget": 0.25,
     "max_degraded_read_fraction": 0.5,
     "read_ops": ["fetch_mail"],
     "ops": {"send_mail": {"p50_ms": 2000, "p99_ms": 60000,
                           "p999_ms": 120000, "availability": 0.95}}}

``error_budget`` is the tolerated fraction of violating windows.

Evaluation reads the per-op :class:`~repro.obs.timeseries.WindowedHistogram`
registered under ``smock.request_sim_ms{op=...}``: latency objectives are
checked cumulatively for pass/fail *and* per closed window for
error-budget burn (burn = fraction of violating windows over the
budgeted fraction; burn > 1 means the budget is spent).  Availability is
``1 - errors/requests`` from the ``smock.request_errors`` counter, and
the degraded-read objective comes from :class:`CoherenceStats`.  Plain
(non-windowed) histograms still evaluate — the whole run is then one
window and burn is all-or-nothing.

Parsing is the standard library's: :func:`load_slo_spec` reads
``"default"``, a JSON file or inline JSON, and nothing else.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .metrics import MetricsRegistry, percentile

__all__ = [
    "SLOSpec",
    "SLORow",
    "SLOReport",
    "evaluate_slo",
    "load_slo_spec",
    "DEFAULT_MAIL_SLO",
]

#: latency objective key → percentile rank
_LATENCY_OBJECTIVES: Tuple[Tuple[str, float], ...] = (
    ("p50_ms", 0.50),
    ("p90_ms", 0.90),
    ("p99_ms", 0.99),
    ("p999_ms", 0.999),
)

#: the built-in spec used by ``mail --slo default`` and the chaos /
#: failover harnesses — deliberately loose enough that a healthy run
#: passes and a run with an unmasked outage fails on budget burn.
DEFAULT_MAIL_SLO: Dict[str, Any] = {
    "name": "mail-default",
    "error_budget": 0.25,
    "max_degraded_read_fraction": 0.5,
    "read_ops": ["fetch_mail"],
    "ops": {
        "send_mail": {
            "p50_ms": 2_000.0,
            "p99_ms": 60_000.0,
            "p999_ms": 120_000.0,
            "availability": 0.95,
        },
        "fetch_mail": {
            "p50_ms": 2_000.0,
            "p99_ms": 60_000.0,
            "p999_ms": 120_000.0,
            "availability": 0.95,
        },
    },
}


@dataclass(frozen=True)
class SLOSpec:
    """Parsed, validated SLO targets."""

    name: str
    ops: Dict[str, Dict[str, float]]
    error_budget: float = 0.1
    max_degraded_read_fraction: Optional[float] = None
    read_ops: Sequence[str] = field(default_factory=tuple)

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "SLOSpec":
        ops_raw = raw.get("ops")
        if not isinstance(ops_raw, Mapping) or not ops_raw:
            raise ValueError("SLO spec needs a non-empty 'ops' mapping")
        ops: Dict[str, Dict[str, float]] = {}
        valid = {k for k, _q in _LATENCY_OBJECTIVES} | {"availability"}
        for op, targets in ops_raw.items():
            if not isinstance(targets, Mapping) or not targets:
                raise ValueError(f"op {op!r} needs a mapping of objectives")
            unknown = set(targets) - valid
            if unknown:
                raise ValueError(
                    f"op {op!r} has unknown objectives {sorted(unknown)}; "
                    f"valid: {sorted(valid)}"
                )
            ops[str(op)] = {k: float(v) for k, v in targets.items()}
        budget = float(raw.get("error_budget", 0.1))
        if not 0.0 < budget <= 1.0:
            raise ValueError(f"error_budget must be in (0, 1], got {budget}")
        degraded = raw.get("max_degraded_read_fraction")
        return cls(
            name=str(raw.get("name", "slo")),
            ops=ops,
            error_budget=budget,
            max_degraded_read_fraction=(
                None if degraded is None else float(degraded)
            ),
            read_ops=tuple(raw.get("read_ops", ())),
        )


@dataclass
class SLORow:
    """One evaluated objective."""

    op: str
    objective: str
    target: float
    observed: Optional[float]
    ok: bool
    #: error-budget burn for latency objectives (None for availability
    #: and degraded-read rows, which have no windowed form)
    budget_burn: Optional[float] = None
    windows: int = 0
    note: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "op": self.op,
            "objective": self.objective,
            "target": self.target,
            "observed": self.observed,
            "ok": self.ok,
            "budget_burn": self.budget_burn,
            "windows": self.windows,
            "note": self.note,
        }


@dataclass
class SLOReport:
    """Pass/fail verdict per objective plus the overall verdict."""

    spec_name: str
    rows: List[SLORow]

    @property
    def passed(self) -> bool:
        return all(row.ok for row in self.rows)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec_name,
            "passed": self.passed,
            "rows": [row.to_dict() for row in self.rows],
        }

    def render(self) -> str:
        """Human-readable report table (the ``--slo`` output)."""
        verdict = "PASS" if self.passed else "FAIL"
        lines = [f"SLO report [{self.spec_name}]: {verdict}"]
        header = (
            f"  {'op':<14} {'objective':<13} {'target':>12} {'observed':>12} "
            f"{'burn':>6} {'windows':>7}  verdict"
        )
        lines.append(header)
        for row in self.rows:
            observed = "n/a" if row.observed is None else f"{row.observed:.4g}"
            burn = "-" if row.budget_burn is None else f"{row.budget_burn:.2f}"
            status = "ok" if row.ok else "VIOLATED"
            note = f"  ({row.note})" if row.note else ""
            lines.append(
                f"  {row.op:<14} {row.objective:<13} {row.target:>12g} "
                f"{observed:>12} {burn:>6} {row.windows:>7}  {status}{note}"
            )
        return "\n".join(lines)


def _op_histogram(
    metrics: MetricsRegistry, histogram_name: str, op: str
) -> Optional[Any]:
    return metrics._histograms.get((histogram_name, (("op", op),)))


def _cumulative_percentile(hist: Any, q: float) -> float:
    """Cumulative percentile for either histogram flavor."""
    if hasattr(hist, "percentile"):  # WindowedHistogram
        return hist.percentile(q)
    return percentile(sorted(hist._values), q)


def _latency_rows(
    op: str,
    targets: Mapping[str, float],
    hist: Optional[Any],
    error_budget: float,
) -> List[SLORow]:
    rows: List[SLORow] = []
    windows = hist.windows() if hist is not None and hasattr(hist, "windows") else []
    for objective, q in _LATENCY_OBJECTIVES:
        if objective not in targets:
            continue
        target = targets[objective]
        if hist is None or not hist.count:
            rows.append(
                SLORow(op, objective, target, None, False, note="no data")
            )
            continue
        observed = _cumulative_percentile(hist, q)
        if windows:
            violating = sum(1 for w in windows if w.percentile(q) > target)
            burn_frac = violating / len(windows)
            burn = burn_frac / error_budget
        else:
            # No closed windows (sampler off or run shorter than one
            # interval): the whole run is a single window.
            burn = (1.0 if observed > target else 0.0) / error_budget
        ok = observed <= target and burn <= 1.0
        rows.append(
            SLORow(
                op, objective, target, observed, ok,
                budget_burn=burn, windows=len(windows),
            )
        )
    return rows


def evaluate_slo(
    spec: SLOSpec,
    metrics: MetricsRegistry,
    coherence_stats: Any = None,
    histogram_name: str = "smock.request_sim_ms",
) -> SLOReport:
    """Evaluate ``spec`` against a metrics registry's recorded state."""
    rows: List[SLORow] = []
    for op, targets in spec.ops.items():
        hist = _op_histogram(metrics, histogram_name, op)
        rows.extend(_latency_rows(op, targets, hist, spec.error_budget))
        if "availability" in targets:
            target = targets["availability"]
            total = hist.count if hist is not None else 0
            if not total:
                rows.append(
                    SLORow(op, "availability", target, None, False, note="no data")
                )
            else:
                errors = metrics._counters.get(
                    ("smock.request_errors", (("op", op),))
                )
                failed = errors.value if errors is not None else 0.0
                observed = 1.0 - failed / total
                rows.append(
                    SLORow(op, "availability", target, observed, observed >= target)
                )
    if spec.max_degraded_read_fraction is not None and coherence_stats is not None:
        target = spec.max_degraded_read_fraction
        read_ops = spec.read_ops or tuple(spec.ops)
        reads = sum(
            h.count
            for op in read_ops
            for h in [_op_histogram(metrics, histogram_name, op)]
            if h is not None
        )
        degraded = getattr(coherence_stats, "degraded_reads", 0)
        if reads:
            observed = degraded / reads
            rows.append(
                SLORow(
                    "(reads)", "degraded_frac", target, observed,
                    observed <= target,
                )
            )
        else:
            rows.append(
                SLORow("(reads)", "degraded_frac", target, None, False,
                       note="no data")
            )
    return SLOReport(spec_name=spec.name, rows=rows)


# -- spec loading ------------------------------------------------------------
def load_slo_spec(source: str) -> SLOSpec:
    """Load a spec from ``"default"``, a JSON file path, or an inline
    JSON string; anything else raises ``ValueError`` naming ``source``."""
    if source == "default":
        return SLOSpec.from_dict(DEFAULT_MAIL_SLO)
    if os.path.exists(source):
        with open(source, "r", encoding="utf-8") as fp:
            text = fp.read()
    else:
        text = source
    try:
        raw = json.loads(text)
    except ValueError as exc:
        raise ValueError(
            f"SLO spec {source!r} is not \"default\", a JSON file or inline "
            f"JSON: {exc}"
        ) from None
    if not isinstance(raw, Mapping):
        raise ValueError(f"SLO spec did not parse to a mapping: {source!r}")
    try:
        return SLOSpec.from_dict(raw)
    except ValueError as exc:
        raise ValueError(f"SLO spec {source!r}: {exc}") from None
