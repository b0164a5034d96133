"""Generator-based simulation processes.

A *process* is a Python generator that yields :class:`~repro.sim.events.Event`
objects; the kernel resumes the generator when the yielded event triggers,
sending the event's value back into the generator.  This gives simulated
components natural sequential code::

    def client(sim, link):
        yield sim.timeout(5.0)            # think time
        reply = yield link.transfer(msg)  # blocks for latency + serialization
        ...

The process itself is an event that triggers when the generator returns,
so processes can wait on each other (fork/join).
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from .events import Event, SimulationError

__all__ = ["Process"]


class Process(Event):
    """Wraps a generator as a schedulable simulation activity.

    The process event triggers with the generator's return value when the
    generator finishes, or fails with the escaping exception.
    """

    __slots__ = ("generator", "name")

    def __init__(
        self,
        sim: Any,
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise TypeError(f"process body must be a generator, got {generator!r}")
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Kick off on the next kernel step at the current time.
        boot = Event(sim)
        boot.add_callback(self._resume)
        boot.succeed(None)

    # -- kernel plumbing --------------------------------------------------
    def _resume(self, by: Event) -> None:
        """Advance the generator with the outcome of ``by``: send its
        value, or throw its exception if it failed."""
        # Slot reads, not the failed/value properties: this runs once per
        # dispatched event.  A process waits on one event at a time, so
        # nothing resumes it once it has finished.
        try:
            if by._failed:
                target = self.generator.throw(by._value)
            else:
                target = self.generator.send(by._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            # Stamp the failure with where/when it escaped, so the
            # exception still names the culprit once it surfaces far
            # from here (e.g. out of run_until_complete in a chaos test).
            # First stamp wins: a fault rethrown up a chain of waiting
            # processes keeps naming the process where it originated.
            if not hasattr(exc, "failed_process"):
                exc.failed_process = self.name  # type: ignore[attr-defined]
                exc.failed_at_ms = self.sim.now  # type: ignore[attr-defined]
            self.fail(exc)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield Events"
            )
        callbacks = target.callbacks
        if callbacks is None:
            # Already dispatched: add_callback schedules the wake-up.
            target.add_callback(self._resume)
        else:
            callbacks.append(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name} {state}>"
