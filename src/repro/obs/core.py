"""The :class:`Observability` bundle and the process-wide default.

Every instrumented constructor takes ``obs: Optional[Observability]``
and resolves ``None`` through :func:`resolve_obs`, which falls back to
the process default — :data:`NULL_OBS` (everything disabled) unless the
CLI, a test fixture, or :func:`use_obs` installed an enabled bundle.
This keeps plumbing out of call sites that don't care while letting one
``set_default_obs`` light up the whole stack.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from .metrics import MetricsRegistry
from .recorder import TraceRecorder
from .tracer import Tracer

__all__ = [
    "Observability",
    "NULL_OBS",
    "get_default_obs",
    "set_default_obs",
    "resolve_obs",
    "use_obs",
]


class Observability:
    """Tracer + metrics + recorder, wired together."""

    def __init__(
        self,
        *,
        tracing: bool = True,
        metrics: bool = True,
        capture_sim_events: bool = False,
    ) -> None:
        self.recorder = TraceRecorder()
        self.tracer = Tracer(enabled=tracing, recorder=self.recorder)
        self.metrics = MetricsRegistry(enabled=metrics)
        #: emit a ``sim.dispatch`` event per simulator step (verbose;
        #: off by default even when tracing is on)
        self.capture_sim_events = capture_sim_events

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled or self.metrics.enabled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Observability tracing={self.tracer.enabled} "
            f"metrics={self.metrics.enabled} records={len(self.recorder)}>"
        )


#: the do-nothing bundle every un-observed component shares
NULL_OBS = Observability(tracing=False, metrics=False)

_default: Observability = NULL_OBS


def get_default_obs() -> Observability:
    return _default


def set_default_obs(obs: Observability) -> Observability:
    """Install ``obs`` as the process default; returns the previous one."""
    global _default
    previous = _default
    _default = obs
    return previous


def resolve_obs(obs: Optional[Observability]) -> Observability:
    """What instrumented constructors call on their ``obs`` argument."""
    return obs if obs is not None else _default


@contextmanager
def use_obs(obs: Observability) -> Iterator[Observability]:
    """Scoped default: everything constructed inside observes ``obs``."""
    previous = set_default_obs(obs)
    try:
        yield obs
    finally:
        set_default_obs(previous)
