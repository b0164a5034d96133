"""The tracer: span lifecycle, parenting, and point events.

Two parenting modes coexist because the codebase has two execution
styles:

- **Synchronous code** (the planner, the CLI) nests spans with the
  :meth:`Tracer.span` context manager, which maintains a stack — the
  innermost open span is the implicit parent.
- **Simulation processes** (generators that ``yield`` to the event
  loop) interleave arbitrarily, so a stack would attribute children to
  whichever process happened to run last.  Generator code therefore
  passes parents *explicitly*: ``tracer.start_span("bind",
  parent=connect_span)``.  :meth:`attach` bridges the two, pushing an
  explicit span onto the stack around a purely-synchronous call (e.g.
  the generic server attaching its ``plan`` span while it invokes the
  planner).
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Optional, Union

from .span import NULL_SPAN, NullSpan, Span

__all__ = ["Tracer"]

AnySpan = Union[Span, NullSpan]


class Tracer:
    """Creates spans and point events, feeding a recorder."""

    def __init__(self, enabled: bool = True, recorder: Any = None) -> None:
        from .recorder import TraceRecorder  # local: avoid import cycle

        self.enabled = enabled
        self.recorder = recorder if recorder is not None else TraceRecorder()
        self._ids = itertools.count(1)
        self._stack: List[Span] = []
        self._sim_clock: Optional[Callable[[], float]] = None

    # -- simulated clock ----------------------------------------------------
    def bind_sim_clock(self, clock: Optional[Callable[[], float]]) -> None:
        """Attach the simulator's clock so spans get simulated durations.

        With several simulators sharing one tracer the last binding
        wins; spans started earlier keep the clock reading they took at
        start time.
        """
        self._sim_clock = clock

    def sim_now(self) -> Optional[float]:
        """Current simulated time, or None when no clock is bound."""
        clock = self._sim_clock
        return clock() if clock is not None else None

    # -- spans --------------------------------------------------------------
    def start_span(
        self, name: str, parent: Optional[AnySpan] = None, **attrs: Any
    ) -> AnySpan:
        """Open a span.  ``parent=None`` means "top of the sync stack,
        if any"; pass an explicit span (or ``NULL_SPAN``) otherwise."""
        if not self.enabled:
            return NULL_SPAN
        if parent is None:
            parent_id = self._stack[-1].span_id if self._stack else None
        else:
            parent_id = parent.span_id
        return Span(self, name, next(self._ids), parent_id, attrs)

    @contextmanager
    def span(
        self, name: str, parent: Optional[AnySpan] = None, **attrs: Any
    ) -> Iterator[AnySpan]:
        """Stack-tracked span for synchronous code paths."""
        s = self.start_span(name, parent, **attrs)
        tracked = isinstance(s, Span)
        if tracked:
            self._stack.append(s)
        try:
            yield s
        except BaseException:
            s.status = "error"
            raise
        finally:
            if tracked:
                self._stack.pop()
            s.finish()

    @contextmanager
    def attach(self, span: AnySpan) -> Iterator[AnySpan]:
        """Make an explicitly-parented span the current stack parent.

        Must not contain a ``yield`` to the simulator — the stack is
        only safe inside one synchronous call chain.
        """
        tracked = isinstance(span, Span)
        if tracked:
            self._stack.append(span)
        try:
            yield span
        finally:
            if tracked:
                self._stack.pop()

    # -- point events -------------------------------------------------------
    def event(self, name: str, **attrs: Any) -> None:
        """Record an instantaneous event (e.g. one simulator dispatch)."""
        if not self.enabled:
            return
        rec: dict = {"type": "event", "name": name}
        now = self.sim_now()
        if now is not None:
            rec["sim_ms"] = now
        if attrs:
            rec["attrs"] = attrs
        self.recorder.add(rec)

    # -- recorder hand-off --------------------------------------------------
    def _record(self, span: Span) -> None:
        self.recorder.add(span.to_record())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return f"<Tracer {state} depth={len(self._stack)}>"
