"""The discrete-event simulation kernel.

:class:`Simulator` owns the simulated clock and the event list, which is
two queues: a binary heap of future events keyed on ``(time, origin,
seq)`` and a FIFO of events due at the current instant.  Together they
give one *total* deterministic order: equal-time events run in schedule
order within one origin, and events merged in from other partitions of
a parallel run (see :mod:`repro.sim.parallel`) sort by their origin
partition id and the sender's own sequence number, so the merge order
never depends on OS message arrival order.  Sequential simulators all
use origin 0, which reduces the key to the classic ``(time, seq)``
schedule order.  All framework time is in **milliseconds** — the unit
of the paper's Figure 7.

One dispatch loop pops both queues.  A process about to create the
very event the loop would pop next, with nobody else waiting on it, may
have it dispatched in place instead (:meth:`Simulator.take_now`,
:meth:`Simulator.take_after`) and carry on: a CPU grant or a service
timeout then costs no event object, no queue entry and no trip back
through the loop and the process's whole ``yield from`` chain, and the
clock, the sequence numbers, the dispatch order and the counts stay
exactly those of the loop.

This replaces the paper's physical testbed (Pentium III nodes + a Click
software router doing traffic shaping): simulated links impose latency
and bandwidth serialization, simulated nodes impose CPU service times,
and the clock is virtual, so experiments are fast and exactly
reproducible.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Deque, Generator, Iterable, List, Optional, Tuple

from ..obs import Observability, resolve_obs
from .events import AllOf, AnyOf, Event, SimulationError, Timeout
from .process import Process

__all__ = ["Simulator"]

_INF = float("inf")


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
    emits a ``sim.dispatch`` point event (``event=repr(event)``) through
    the tracer.

    :meth:`run` and :meth:`run_until_complete` are two stopping rules
    over one dispatch loop, :meth:`_drain`: it pops events in key order,
    advances the clock and runs their callbacks.  The loop counts its
    dispatches in a local and adds them to ``sim.events_dispatched``
    once, on the way out (also when a callback raises), and refuses to
    be entered from inside one of its own callbacks.  :meth:`take_now`
    and :meth:`take_after` dispatch the loop's next event in place, by
    the loop's own rules, before it is built.

    Most events are due at the instant they are scheduled (a triggered
    event, a process's first step, a zero-length timeout), so the event
    list is two queues.  An event due later goes onto the heap under its
    ``(when, origin, seq)`` key; an event due *now* is appended to a
    FIFO and keeps no key.  The FIFO's order is its seq order, and a
    heap entry stamped now sorts before it exactly when its origin is at
    most this simulator's: a local one was scheduled before the clock
    reached now (smaller seq), a merged one sorts by its origin.
    """

    def __init__(
        self,
        obs: Optional[Observability] = None,
        origin: int = 0,
    ) -> None:
        #: current simulated time in milliseconds (only the kernel moves it)
        self.now = 0.0
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._fifo: Deque[Event] = deque()
        self._seq = 0
        #: partition id stamped into every locally scheduled heap key.
        #: 0 for sequential runs; the parallel layer gives each logical
        #: process its partition rank so merged event streams from
        #: different origins have a total, arrival-independent order.
        self._origin = int(origin)
        self._running = False
        #: set by _drain while it runs the sole callback of the event it
        #: popped: only then may take_now()/take_after() dispatch an event
        #: in place.
        self._in_place = False
        #: the running drain's exclusive bound, and how many events
        #: have been dispatched in place during it.
        self._until = _INF
        self._taken = 0
        self.obs = resolve_obs(obs)
        if self.obs.tracer.enabled:
            self.obs.tracer.bind_sim_clock(lambda: self.now)
        self._evt_counter = (
            self.obs.metrics.counter("sim.events_dispatched")
            if self.obs.metrics.enabled
            else None
        )
        self._capture_events = (
            self.obs.capture_sim_events and self.obs.tracer.enabled
        )

    # -- clock ------------------------------------------------------------
    @property
    def events_scheduled(self) -> int:
        """How many events this simulator has scheduled so far — with
        :attr:`now`, the run-length half of a determinism signature."""
        return self._seq

    @property
    def events_pending(self) -> int:
        """How many scheduled events have not been dispatched yet."""
        return len(self._heap) + len(self._fifo)

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
        if not self.now <= when < _INF:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule at {when}: not a finite time at or after now {self.now}"
            )
        ev = Event(self)
        ev.add_callback(lambda _e: fn())
        ev._triggered = True
        self._schedule(when, ev)
        return ev

    def call_after(self, delay: float, fn: Callable[[], None]) -> Event:
        """Run plain callable ``fn`` after ``delay`` ms."""
        return self.call_at(self.now + delay, fn)

    # -- kernel -------------------------------------------------------------
    def _schedule(self, when: float, event: Event) -> None:
        """Put a triggered event on the event list, due at ``when``."""
        self._seq += 1
        if when == self.now:
            self._fifo.append(event)
        else:
            heappush(self._heap, (when, self._origin, self._seq, event))

    def schedule_external(
        self, when: float, origin: int, seq: int, event: Event
    ) -> None:
        """Merge an event from another partition into the event list.

        ``(origin, seq)`` is the *sender's* identity and per-origin
        sequence number, which keeps the heap key total and reproducible
        across worker counts.  The caller (the parallel layer's ingress
        path) guarantees ``origin`` differs from this simulator's own
        origin, so external keys can never collide with local ones.  The
        event goes onto the heap even when it is due now: its key, not
        its arrival, decides where it runs among this instant's events.
        """
        if not self.now <= when < _INF:  # also rejects NaN
            raise SimulationError(
                f"causality violation: external event at {when}, not a finite "
                f"time at or after now {self.now}"
            )
        heappush(self._heap, (when, origin, seq, event))

    def _drain(self, until: float, proc: Optional[Process]) -> None:
        """The dispatch loop: pop events in key order, advance the clock
        and run their callbacks, until both queues are empty, the next
        event is stamped at or after ``until``, or ``proc`` has finished.

        The clock moves only when the FIFO is empty, so every FIFO event
        is due now; the heap goes first while its top is due now from an
        origin at or below this simulator's (see the class docstring).

        While it runs the only callback of the event it popped, with
        capture off, the loop lets :meth:`take_now` and :meth:`take_after`
        dispatch the loop's next event in place.  A taken event may move
        the clock, so the loop re-reads it after such a callback, and it
        adds the taken events to ``sim.events_dispatched`` on the way
        out."""
        if self._running:
            raise SimulationError(
                "run() / run_until_complete() are not reentrant"
            )
        self._running = True
        self._until = until
        self._taken = 0
        heap = self._heap
        fifo = self._fifo
        popleft = fifo.popleft
        origin = self._origin
        now = self.now
        capture = self._capture_events
        dispatched = 0
        try:
            while not (proc and proc._triggered):
                if fifo and not (heap and heap[0][0] <= now and heap[0][1] <= origin):
                    if now >= until:
                        break
                    event = popleft()
                elif heap and heap[0][0] < until:
                    when, _origin, _seq, event = heappop(heap)
                    if when < now:
                        raise SimulationError(
                            "event list corrupted: time went backwards"
                        )
                    self.now = now = when
                else:
                    break
                dispatched += 1
                if capture:
                    self.obs.tracer.event("sim.dispatch", event=repr(event))
                callbacks = event.callbacks
                event.callbacks = None
                if not callbacks:
                    continue
                if len(callbacks) == 1 and not capture:
                    self._in_place = True
                    callbacks[0](event)
                    self._in_place = False
                    now = self.now
                else:
                    for fn in callbacks:
                        fn(event)
        finally:
            self._running = False
            self._in_place = False
            dispatched += self._taken
            if dispatched and self._evt_counter is not None:
                self._evt_counter.inc(dispatched)

    def take_now(self) -> bool:
        """Dispatch here and now an event due at this instant, without
        building it, if the dispatch loop would dispatch it next and to
        nobody but the caller; say whether it did.

        A process about to create a fresh event due now (a CPU grant, a
        zero-length timeout) calls this first and carries on when it
        returns True, so neither the event nor the loop's trip back
        through the process's ``yield from`` chain is paid for.  It holds
        exactly when the loop is running the sole callback of the event
        it popped (that callback is the caller's resume), the FIFO is
        empty (the fresh event would be its only entry) and no heap entry
        is due now from an origin at or below this simulator's.  Then the
        loop's next step would pop that event and resume only the caller,
        with a value the caller ignores; here the event is scheduled and
        dispatched, and counted, the same way.  When it returns False the
        caller builds and yields the event as usual.
        """
        if not self._in_place or self._fifo:
            return False
        heap = self._heap
        if heap and heap[0][0] <= self.now and heap[0][1] <= self._origin:
            return False
        self._seq += 1
        self._taken += 1
        return True

    def take_after(self, delay: float) -> bool:
        """:meth:`take_now` for a timeout of ``delay`` ms: dispatch it in
        place, without building it, if the loop would dispatch it next
        and to nobody but the caller, moving the clock to its instant;
        say whether it did.

        The instant is the sum ``now + delay``, as :class:`Timeout` forms
        it, so a delay that rounds away is due now and follows
        :meth:`take_now`'s rule.  A later instant is the loop's next pop
        when the FIFO is empty, the instant lies below the running
        drain's bound, and ``(when, origin)`` sorts strictly below the
        heap top's: on a tie the top, scheduled earlier, holds the
        smaller seq.  Both cases read the heap top the same way.  Raises
        :class:`ValueError` for a delay :class:`Timeout` refuses (NaN,
        negative or infinite).
        """
        if not 0.0 <= delay < _INF:
            raise ValueError(f"timeout delay not finite and >= 0: {delay}")
        if not self._in_place or self._fifo:
            return False
        now = self.now
        when = now + delay
        heap = self._heap
        if heap:
            top_when, top_origin = heap[0][0], heap[0][1]
            if top_when < when or (top_when == when and top_origin <= self._origin):
                return False
        if when != now:
            if not when < self._until:
                return False
            self.now = when
        self._seq += 1
        self._taken += 1
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Run until the event list drains or the clock passes ``until``.

        Returns the final simulated time.  ``until`` is exclusive: an
        event stamped exactly at ``until`` does not run, and the clock is
        left at ``until`` — unless ``until`` is already in the past, in
        which case nothing runs and the clock stays where it is (it never
        moves backwards).
        """
        if until is not None and math.isnan(until):
            raise SimulationError("run() needs a comparable until, got nan")
        self._drain(_INF if until is None else until, None)
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def run_until_complete(self, proc: Process, limit: float = _INF) -> Any:
        """Run until ``proc`` finishes; return its value (raise if it failed).

        ``limit`` is inclusive: an event stamped exactly at ``limit``
        still runs.  A failing process re-raises its exception annotated
        with the process name and the simulated time of the failure —
        without this, a chaos-test stack trace says *what* broke but not
        *who* or *when* on the virtual clock.
        """
        if math.isnan(limit):
            raise SimulationError(
                "run_until_complete() needs a comparable limit, got nan"
            )
        # The loop's bound is exclusive: the next float above ``limit``
        # admits exactly the events stamped at or before it.
        self._drain(math.nextafter(limit, _INF), proc)
        if not proc._triggered:
            if not self.events_pending:
                raise SimulationError(
                    f"deadlock: event list empty but {proc!r} not finished"
                )
            raise SimulationError(
                f"time limit {limit} exceeded waiting on {proc!r}"
            )
        if proc.failed:
            exc = proc.value
            failed_in = getattr(exc, "failed_process", proc.name)
            failed_at = getattr(exc, "failed_at_ms", self.now)
            note = f"in process {failed_in!r} at t={failed_at:.1f}ms"
            if hasattr(exc, "add_note"):  # Python >= 3.11
                exc.add_note(note)
            exc.sim_context = note  # type: ignore[attr-defined]
            raise exc
        return proc.value

    def peek(self) -> float:
        """Timestamp of the next event, or +inf if the list is empty."""
        if self._fifo:
            return self.now
        return self._heap[0][0] if self._heap else _INF

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self.now} pending={self.events_pending}>"
