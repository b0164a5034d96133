"""The discrete-event simulation kernel.

:class:`Simulator` owns the event list (a binary heap keyed on
``(time, origin, seq)`` — a *total* deterministic order: equal-time
events run in schedule order within one origin, and events merged in
from other partitions of a parallel run (see
:mod:`repro.sim.parallel`) sort by their origin partition id and the
sender's own sequence number, so the merge order never depends on OS
message arrival order) and the simulated clock.  Sequential simulators
all use origin 0, which reduces the key to the classic ``(time, seq)``
schedule order.  All framework time is in **milliseconds** — the unit
of the paper's Figure 7.

This replaces the paper's physical testbed (Pentium III nodes + a Click
software router doing traffic shaping): simulated links impose latency
and bandwidth serialization, simulated nodes impose CPU service times,
and the clock is virtual, so experiments are fast and exactly
reproducible.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Tuple

from ..obs import Observability, resolve_obs
from .events import AllOf, AnyOf, Event, SimulationError, Timeout
from .process import Process

__all__ = ["Simulator"]


class Simulator:
    """Event-list simulator with generator-process support.

    Typical use::

        sim = Simulator()
        sim.process(my_generator(sim))
        sim.run(until=10_000.0)

    Observability: the simulator binds its virtual clock to the
    tracer, so every span opened while this simulator exists records a
    simulated duration alongside its wall-clock one.  With
    ``obs.capture_sim_events`` set, each dispatched event additionally
    emits a ``sim.dispatch`` point event through the tracer — the
    successor of the legacy ``trace`` list, which remains supported as
    a shim (assign a list to :attr:`trace` and dispatches are mirrored
    into it as ``(time, repr(event))`` tuples).
    """

    def __init__(
        self,
        obs: Optional[Observability] = None,
        fast_path: bool = True,
        origin: int = 0,
    ) -> None:
        self._now = 0.0
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._seq = 0
        #: partition id stamped into every locally scheduled heap key.
        #: 0 for sequential runs; the parallel layer gives each logical
        #: process its partition rank so merged event streams from
        #: different origins have a total, arrival-independent order.
        self._origin = int(origin)
        self._running = False
        self._trace: Optional[List[Tuple[float, str]]] = None
        self.obs = resolve_obs(obs)
        if self.obs.tracer.enabled:
            self.obs.tracer.bind_sim_clock(lambda: self._now)
        # Dispatch-loop metric handles, resolved once: the step() loop
        # is the hottest path in the repository.
        self._evt_counter = (
            self.obs.metrics.counter("sim.events_dispatched")
            if self.obs.metrics.enabled
            else None
        )
        self._capture_events = (
            self.obs.capture_sim_events and self.obs.tracer.enabled
        )
        #: constructor knob: False pins run()/run_until_complete() to the
        #: fully instrumented step() loop even when nothing observes it.
        self._fast_path_allowed = fast_path
        self._refresh_fast_path()

    def _refresh_fast_path(self) -> None:
        """Select the dispatch loop once, the way __init__ resolves
        metric handles: the tight loop is only legal when no per-event
        observer (legacy trace list, event counter, sim.dispatch
        capture) needs a hook inside it."""
        self._fast = (
            self._fast_path_allowed
            and self._trace is None
            and self._evt_counter is None
            and not self._capture_events
        )

    # -- legacy trace shim -------------------------------------------------
    @property
    def trace(self) -> Optional[List[Tuple[float, str]]]:
        """Legacy dispatch log: ``(time, repr(event))`` per step.

        Superseded by the tracer (see class docstring); assigning a
        list here still works and mirrors exactly what the tracer's
        ``sim.dispatch`` events carry.
        """
        return self._trace

    @trace.setter
    def trace(self, value: Optional[List[Tuple[float, str]]]) -> None:
        self._trace = value
        self._refresh_fast_path()

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    @property
    def events_scheduled(self) -> int:
        """How many events this simulator has scheduled so far — with
        :attr:`now`, the run-length half of a determinism signature."""
        return self._seq

    # -- event construction -------------------------------------------------
    def event(self) -> Event:
        """A fresh pending event, triggered manually by the caller."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event triggering ``delay`` ms from now."""
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Event, Any, Any], name: Optional[str] = None
    ) -> Process:
        """Start ``generator`` as a process at the current time."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event: triggers when any child triggers."""
        return AnyOf(self, list(events))

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event: triggers when every child has triggered."""
        return AllOf(self, list(events))

    def call_at(self, when: float, fn: Callable[[], None]) -> Event:
        """Run plain callable ``fn`` at absolute time ``when``."""
        if when < self._now:
            raise SimulationError(f"cannot schedule in the past: {when} < {self._now}")
        ev = Event(self)
        ev.add_callback(lambda _e: fn())
        ev._triggered = True
        self._schedule(when, ev)
        return ev

    def call_after(self, delay: float, fn: Callable[[], None]) -> Event:
        """Run plain callable ``fn`` after ``delay`` ms."""
        return self.call_at(self._now + delay, fn)

    # -- kernel -------------------------------------------------------------
    def _schedule(self, when: float, event: Event) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (when, self._origin, self._seq, event))

    def schedule_external(
        self, when: float, origin: int, seq: int, event: Event
    ) -> None:
        """Merge an event from another partition into the event list.

        ``(origin, seq)`` is the *sender's* identity and per-origin
        sequence number, which keeps the heap key total and reproducible
        across worker counts.  The caller (the parallel layer's ingress
        path) guarantees ``origin`` differs from this simulator's own
        origin, so external keys can never collide with local ones.
        """
        if when < self._now:
            raise SimulationError(
                f"causality violation: external event at {when} < now {self._now}"
            )
        heapq.heappush(self._heap, (when, origin, seq, event))

    def _queue_event(self, event: Event) -> None:
        """Queue an already-triggered event for callback dispatch *now*."""
        self._schedule(self._now, event)

    def _dispatch(self, event: Event) -> None:
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks:
            for fn in callbacks:
                fn(event)

    def step(self) -> float:
        """Process one event; returns its timestamp."""
        when, _origin, _seq, event = heapq.heappop(self._heap)
        if when < self._now:
            raise SimulationError("event list corrupted: time went backwards")
        self._now = when
        if self._trace is not None or self._capture_events:
            label = repr(event)
            if self._trace is not None:
                self._trace.append((when, label))
            if self._capture_events:
                self.obs.tracer.event("sim.dispatch", event=label)
        if self._evt_counter is not None:
            self._evt_counter.inc()
        self._dispatch(event)
        return when

    def run(self, until: Optional[float] = None) -> float:
        """Run until the event list drains or the clock passes ``until``.

        Returns the final simulated time.  ``until`` is exclusive: an
        event stamped exactly at ``until`` does not run, and the clock is
        left at ``until``.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        try:
            if self._fast:
                # Tight-loop variant of the while-step() below: same pop,
                # same monotonicity check, same dispatch — minus the
                # per-event method call and observer branches, which the
                # constructor established nobody is watching.
                heap = self._heap
                pop = heapq.heappop
                while heap:
                    if until is not None and heap[0][0] >= until:
                        self._now = until
                        break
                    when, _origin, _seq, event = pop(heap)
                    if when < self._now:
                        raise SimulationError(
                            "event list corrupted: time went backwards"
                        )
                    self._now = when
                    callbacks = event.callbacks
                    event.callbacks = None
                    if callbacks:
                        for fn in callbacks:
                            fn(event)
                else:
                    if until is not None and until > self._now:
                        self._now = until
                return self._now
            while self._heap:
                if until is not None and self._heap[0][0] >= until:
                    self._now = until
                    break
                self.step()
            else:
                if until is not None and until > self._now:
                    self._now = until
        finally:
            self._running = False
        return self._now

    def run_until_complete(self, proc: Process, limit: float = float("inf")) -> Any:
        """Run until ``proc`` finishes; return its value (raise if it failed).

        A failing process re-raises its exception annotated with the
        process name and the simulated time of the failure — without
        this, a chaos-test stack trace says *what* broke but not *who*
        or *when* on the virtual clock.
        """
        if self._fast:
            heap = self._heap
            pop = heapq.heappop
            while not proc.triggered:
                if not heap:
                    raise SimulationError(
                        f"deadlock: event list empty but {proc!r} not finished"
                    )
                if heap[0][0] > limit:
                    raise SimulationError(
                        f"time limit {limit} exceeded waiting on {proc!r}"
                    )
                when, _origin, _seq, event = pop(heap)
                if when < self._now:
                    raise SimulationError(
                        "event list corrupted: time went backwards"
                    )
                self._now = when
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks:
                    for fn in callbacks:
                        fn(event)
        while not proc.triggered:
            if not self._heap:
                raise SimulationError(
                    f"deadlock: event list empty but {proc!r} not finished"
                )
            if self._heap[0][0] > limit:
                raise SimulationError(f"time limit {limit} exceeded waiting on {proc!r}")
            self.step()
        if proc.failed:
            exc = proc.value
            failed_in = getattr(exc, "failed_process", proc.name)
            failed_at = getattr(exc, "failed_at_ms", self._now)
            note = f"in process {failed_in!r} at t={failed_at:.1f}ms"
            if hasattr(exc, "add_note"):  # Python >= 3.11
                exc.add_note(note)
            exc.sim_context = note  # type: ignore[attr-defined]
            raise exc
        return proc.value

    def peek(self) -> float:
        """Timestamp of the next event, or +inf if the list is empty."""
        return self._heap[0][0] if self._heap else float("inf")

    # -- parallel execution -------------------------------------------------
    @classmethod
    def run_parallel(
        cls,
        network: Any,
        program: Callable[..., None],
        config: Any = None,
        *,
        workers: int = 1,
        until: float,
        plan: Any = None,
        credential: str = "site",
        deadlock_timeout_s: Optional[float] = None,
    ) -> Any:
        """Run ``program`` over ``network`` on the conservative parallel
        kernel (:mod:`repro.sim.parallel`): one logical process per
        topology partition, each hosting an ordinary :class:`Simulator`,
        synchronized by null-message lookahead.  ``workers=1`` runs every
        partition in this process (no multiprocessing) but through the
        same partitioned protocol, so results are identical for any
        worker count.  ``deadlock_timeout_s`` tunes the per-worker
        no-progress tripwire (default 60 wall seconds).  Returns a
        :class:`repro.sim.parallel.ParallelRunResult`.
        """
        from .parallel import run_parallel as _run_parallel

        kwargs: Dict[str, Any] = {}
        if deadlock_timeout_s is not None:
            kwargs["deadlock_timeout_s"] = deadlock_timeout_s
        return _run_parallel(
            network,
            program,
            config,
            workers=workers,
            until=until,
            plan=plan,
            credential=credential,
            **kwargs,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self._now} pending={len(self._heap)}>"
