"""Event primitives for the discrete-event simulation kernel.

The kernel follows the classic event-list design: an :class:`Event` is a
one-shot occurrence with an optional value; callbacks registered on an
event fire when it triggers.  Generator-based processes (see
:mod:`repro.sim.process`) yield events to suspend until they trigger.

Events are deliberately tiny objects — the simulator's hot loop touches
millions of them in the larger benchmarks, so we use ``__slots__`` and
avoid any per-event allocation beyond the callback list.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, List, Optional

__all__ = [
    "Event",
    "Timeout",
    "Injected",
    "AnyOf",
    "AllOf",
    "SimulationError",
    "FaultError",
    "NodeDownError",
    "LinkDownError",
]

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double trigger, running a dead sim...)."""


class FaultError(SimulationError):
    """A simulated infrastructure fault interfered with an operation.

    Base class for the errors the fault-injection layer introduces;
    transport stubs treat these like network errors (a failure the
    caller may retry), never as kernel bugs.
    """


class NodeDownError(FaultError):
    """The target (or executing) node is crashed."""


class LinkDownError(FaultError):
    """The traversed link is partitioned."""


class Event:
    """A one-shot occurrence on the simulation timeline.

    An event starts *pending*; :meth:`succeed` (or :meth:`fail`) moves it
    to *triggered* exactly once, invoking each registered callback with
    the event itself.  Values are delivered through :attr:`value`.
    """

    __slots__ = ("sim", "callbacks", "_value", "_triggered", "_failed")

    def __init__(self, sim: "Any") -> None:
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._triggered = False
        self._failed = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has occurred (successfully or not)."""
        return self._triggered

    @property
    def failed(self) -> bool:
        """True if the event was triggered via :meth:`fail`."""
        return self._failed

    @property
    def value(self) -> Any:
        """The payload delivered at trigger time (exception if failed)."""
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value``."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._value = value
        # Simulator._schedule(now, self) inlined: succeed runs once per
        # resource grant and per finished process, and an event due now
        # goes to the same-instant FIFO.
        sim = self.sim
        sim._seq += 1
        sim._fifo.append(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as a failure carrying exception ``exc``."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._failed = True
        self._value = exc
        self.sim._schedule(self.sim._now, self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event triggers.

        If the event already ran its callbacks, ``fn`` fires on the next
        kernel step rather than being silently dropped.
        """
        if self.callbacks is None:
            # Already dispatched: schedule an immediate wake-up.
            self.sim.call_at(self.sim.now, lambda: fn(self))
        else:
            self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        return f"<{type(self).__name__} {state} at t={getattr(self.sim, 'now', '?')}>"


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: Any, delay: float, value: Any = None) -> None:
        # NaN or inf would poison the clock.  A float bound: comparing a
        # float delay with the int 0 takes the interpreter's slow path.
        if not 0.0 <= delay < _INF:
            raise ValueError(f"timeout delay not finite and >= 0: {delay}")
        # Event.__init__ and Simulator._schedule inlined: a timeout is
        # built for every service time, serialization and link latency.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._triggered = True  # scheduled immediately, fires later
        self._failed = False
        self.delay = delay
        sim._seq = seq = sim._seq + 1
        now = sim._now
        when = now + delay
        # Compare the sum, not the delay: a tiny delay can round to now.
        if when == now:
            sim._fifo.append(self)
        else:
            heappush(sim._heap, (when, sim._origin, seq, self))


class Injected(Event):
    """An event merged in from outside this simulator's timeline.

    The parallel kernel's ingress path wraps each cross-partition
    message in one of these: it is created already *triggered* (like a
    :class:`Timeout`) and pushed onto the heap via
    ``Simulator.schedule_external`` under the sender's ``(origin, seq)``
    key, so the receiving partition dispatches it at exactly the
    timestamp and total-order position the sender stamped.  ``payload``
    carries the raw cross-partition message.
    """

    __slots__ = ("payload",)

    def __init__(self, sim: Any, payload: Any = None) -> None:
        super().__init__(sim)
        self.payload = payload
        self._triggered = True  # dispatched when its heap key surfaces


class _Condition(Event):
    """Base for AnyOf / AllOf composite events.  The condition keeps
    ``events`` itself, not a copy: :meth:`Simulator.any_of` and
    :meth:`Simulator.all_of` hand it a fresh list."""

    __slots__ = ("events", "_n_needed", "_n_done")

    def __init__(self, sim: Any, events: List[Event], n_needed: int) -> None:
        super().__init__(sim)
        self.events = events
        self._n_needed = n_needed
        self._n_done = 0
        if not self.events:
            self.succeed([])
            return
        for ev in self.events:
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self._triggered:
            return
        if ev.failed:
            self.fail(ev.value)
        else:
            self._n_done += 1
            if self._n_done < self._n_needed:
                return
            self.succeed([e.value for e in self.events if e.triggered])
        # Decided: unsubscribe from every child not dispatched yet, so a
        # race's losing timeout does not keep this condition, and through
        # it the winner and its value, alive until the timeout fires.
        on_child = self._on_child
        for child in self.events:
            if child.callbacks is not None:
                child.callbacks.remove(on_child)


class AnyOf(_Condition):
    """Triggers when any one of ``events`` triggers."""

    __slots__ = ()

    def __init__(self, sim: Any, events: List[Event]) -> None:
        super().__init__(sim, events, n_needed=1)


class AllOf(_Condition):
    """Triggers when all of ``events`` have triggered."""

    __slots__ = ()

    def __init__(self, sim: Any, events: List[Event]) -> None:
        super().__init__(sim, events, n_needed=len(events))
