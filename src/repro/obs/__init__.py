"""Zero-dependency observability: tracing, metrics, structured logging.

The paper's evaluation (§4) is entirely about *where time goes* —
linkage-enumeration cost, planning latency, per-request client latency
under different deployments.  This package gives every layer of the
reproduction a common way to answer that question:

- :class:`Tracer` / :class:`Span` — nestable spans that record **both**
  wall-clock duration (host compute) and simulated-clock duration (the
  virtual milliseconds of Figure 7), plus point events;
- :class:`MetricsRegistry` — counters and histograms with
  percentile summaries (labels supported);
- :class:`TraceRecorder` — collects finished spans/events, exports
  JSON-lines and renders a human-readable span tree;
- :mod:`repro.obs.logs` — stdlib-``logging`` helpers whose default
  console handler keeps CLI output byte-identical to the old ``print``
  based output, with an opt-in JSON formatter.

Everything is bundled by :class:`Observability`; a process-wide default
(:data:`NULL_OBS`, fully disabled) keeps the instrumented hot paths
free when nobody is watching.  Enable from the CLI with
``python -m repro <cmd> --trace out.jsonl --metrics`` or
programmatically::

    from repro.obs import Observability, use_obs

    obs = Observability()
    with use_obs(obs):
        testbed = build_mail_testbed()
        ...
    print(obs.recorder.tree_report())
    print(obs.metrics.render())
"""

from .core import (
    NULL_OBS,
    Observability,
    get_default_obs,
    resolve_obs,
    set_default_obs,
    use_obs,
)
from .flight import FlightRecorder
from .logs import JsonFormatter, configure_logging, get_logger
from .metrics import Counter, Histogram, MetricsRegistry
from .recorder import TraceRecorder, load_jsonl
from .slo import DEFAULT_MAIL_SLO, SLOReport, SLOSpec, evaluate_slo, load_slo_spec
from .span import NULL_SPAN, Span
from .timeseries import TelemetrySampler, TimeSeries, WindowedHistogram
from .tracer import Tracer

__all__ = [
    "Observability",
    "NULL_OBS",
    "get_default_obs",
    "set_default_obs",
    "resolve_obs",
    "use_obs",
    "Tracer",
    "Span",
    "NULL_SPAN",
    "MetricsRegistry",
    "Counter",
    "Histogram",
    "TraceRecorder",
    "load_jsonl",
    "TimeSeries",
    "WindowedHistogram",
    "TelemetrySampler",
    "SLOSpec",
    "SLOReport",
    "evaluate_slo",
    "load_slo_spec",
    "DEFAULT_MAIL_SLO",
    "FlightRecorder",
    "configure_logging",
    "get_logger",
    "JsonFormatter",
]
