"""Open-loop arrival processes as first-class event sources.

The scripted workloads are *closed-loop*: each client issues its next
operation only after the previous one completes, so offered load can
never exceed service capacity and the system never saturates.  Real
flash crowds are *open-loop* — arrivals keep coming at the environment's
rate whether or not the service keeps up — which is the regime where
admission control and load shedding decide between a slow service and a
dead one.

An :class:`ArrivalProcess` is a seeded, deterministic source of arrival
instants.  :meth:`ArrivalProcess.drive` pumps it through the simulator
one event per arrival (the next arrival is scheduled only when the
current one fires, so a 100k-arrival storm costs one pending event, not
100k heap entries up front).

The non-homogeneous :class:`FlashCrowdProcess` generates by
Lewis-Shedler thinning: draw candidate gaps from a homogeneous Poisson
process at the peak rate and accept each candidate with probability
``rate(t)/peak``.  The same seed therefore reproduces the same arrival
instants exactly, independent of what the rest of the simulation does.
"""

from __future__ import annotations

import math
import random
from functools import partial
from typing import Callable, Iterator, Optional

from .engine import Simulator

__all__ = [
    "ArrivalProcess",
    "PoissonProcess",
    "FlashCrowdProcess",
    "ArrivalStream",
]


def _finite_non_negative(value: float) -> bool:
    """False for negatives, NaN and infinities (NaN fails every ``<``)."""
    return math.isfinite(value) and value >= 0


class ArrivalStream:
    """Handle for one live :meth:`ArrivalProcess.drive` pump."""

    __slots__ = ("count", "exhausted")

    def __init__(self) -> None:
        #: arrivals fired so far
        self.count = 0
        #: True once the pump stopped (horizon or limit reached)
        self.exhausted = False


class ArrivalProcess:
    """Seeded source of arrival instants (subclasses define the rate)."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)

    # -- rate function -------------------------------------------------------
    def rate_at(self, t_ms: float) -> float:
        """Instantaneous arrival rate (arrivals/second) at offset ``t_ms``
        from the start of the stream."""
        raise NotImplementedError

    def peak_rate(self) -> float:
        """An upper bound on :meth:`rate_at` over the whole stream (the
        thinning envelope)."""
        raise NotImplementedError

    # -- generation ----------------------------------------------------------
    def offsets_ms(self) -> Iterator[float]:
        """Infinite iterator of arrival offsets (ms from stream start).

        A fresh iterator restarts the seeded RNG, so two iterations of
        the same process yield identical instants.
        """
        rng = random.Random(f"{type(self).__name__}:{self.seed}")
        lam_max = self.peak_rate()
        if lam_max <= 0:
            return
        t = 0.0
        while True:
            # candidate gap from the homogeneous envelope, then thin
            t += rng.expovariate(lam_max) * 1000.0
            if rng.random() * lam_max <= self.rate_at(t):
                yield t

    def drive(
        self,
        sim: Simulator,
        fn: Callable[[float], None],
        duration_ms: float,
        limit: Optional[int] = None,
    ) -> ArrivalStream:
        """Pump arrivals through ``sim``: call ``fn(t_abs_ms)`` at every
        arrival instant within ``duration_ms`` of now.

        One simulator event exists per *pending* arrival — the next one
        is armed from the current one's callback — so arbitrarily long
        storms stay O(1) in heap space.  Returns a live
        :class:`ArrivalStream` whose ``count`` grows as arrivals fire.
        """
        stream = ArrivalStream()
        _Pump(sim, fn, stream, self.offsets_ms(), duration_ms, limit).arm()
        return stream


class _Pump:
    """The armed half of one :meth:`ArrivalProcess.drive`.

    Only the pending arrival's event refers to it, so it is freed by
    reference counting once the stream runs out (a closure that re-arms
    itself is a reference cycle holding ``fn`` and all it reaches).
    """

    __slots__ = ("sim", "fn", "stream", "offsets", "t0", "duration_ms", "limit")

    def __init__(
        self,
        sim: Simulator,
        fn: Callable[[float], None],
        stream: ArrivalStream,
        offsets: Iterator[float],
        duration_ms: float,
        limit: Optional[int],
    ) -> None:
        self.sim = sim
        self.fn = fn
        self.stream = stream
        self.offsets = offsets
        self.t0 = sim.now
        self.duration_ms = duration_ms
        self.limit = limit

    def arm(self) -> None:
        stream = self.stream
        if self.limit is not None and stream.count >= self.limit:
            stream.exhausted = True
            return
        off = next(self.offsets, None)
        if off is None or off > self.duration_ms:
            stream.exhausted = True
            return
        self.sim.call_at(self.t0 + off, partial(self.fire, self.t0 + off))

    def fire(self, t_abs_ms: float) -> None:
        self.stream.count += 1
        self.fn(t_abs_ms)
        self.arm()


class PoissonProcess(ArrivalProcess):
    """Homogeneous Poisson arrivals at ``rate_per_s``."""

    def __init__(self, rate_per_s: float, seed: int = 0) -> None:
        super().__init__(seed)
        if not _finite_non_negative(rate_per_s):
            raise ValueError(f"rate must be finite and >= 0, got {rate_per_s}")
        self.rate_per_s = float(rate_per_s)

    def rate_at(self, t_ms: float) -> float:
        return self.rate_per_s

    def peak_rate(self) -> float:
        return self.rate_per_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PoissonProcess {self.rate_per_s}/s seed={self.seed}>"


class FlashCrowdProcess(ArrivalProcess):
    """A baseline rate with one superimposed flash crowd.

    The rate holds at ``base`` until ``at_ms``, ramps linearly to
    ``peak`` over ``ramp_ms``, holds the peak for ``hold_ms``, then
    decays linearly back to ``base`` over ``decay_ms`` — the classic
    news-event load shape that drives a service past saturation and
    back.
    """

    def __init__(
        self,
        base_rate_per_s: float,
        peak_rate_per_s: float,
        at_ms: float,
        ramp_ms: float = 2_000.0,
        hold_ms: float = 10_000.0,
        decay_ms: float = 5_000.0,
        seed: int = 0,
    ) -> None:
        super().__init__(seed)
        if not (
            _finite_non_negative(base_rate_per_s)
            and _finite_non_negative(peak_rate_per_s)
            and peak_rate_per_s >= base_rate_per_s
        ):
            raise ValueError(
                f"need finite 0 <= base <= peak, got {base_rate_per_s}, {peak_rate_per_s}"
            )
        if not all(map(_finite_non_negative, (at_ms, ramp_ms, hold_ms, decay_ms))):
            raise ValueError("flash-crowd timings must be finite and >= 0")
        self.base_rate_per_s = float(base_rate_per_s)
        self.peak_rate_per_s = float(peak_rate_per_s)
        self.at_ms = float(at_ms)
        self.ramp_ms = float(ramp_ms)
        self.hold_ms = float(hold_ms)
        self.decay_ms = float(decay_ms)

    def rate_at(self, t_ms: float) -> float:
        base, peak = self.base_rate_per_s, self.peak_rate_per_s
        t = t_ms - self.at_ms
        if t < 0:
            return base
        if t < self.ramp_ms:
            return base + (peak - base) * (t / self.ramp_ms)
        t -= self.ramp_ms
        if t < self.hold_ms:
            return peak
        t -= self.hold_ms
        if t < self.decay_ms:
            return peak - (peak - base) * (t / self.decay_ms)
        return base

    def peak_rate(self) -> float:
        return self.peak_rate_per_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FlashCrowdProcess {self.base_rate_per_s}->{self.peak_rate_per_s}/s "
            f"at={self.at_ms}ms seed={self.seed}>"
        )
