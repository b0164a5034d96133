"""The open-loop driver: arrivals → simulated users → service requests.

Each arrival instant from an :class:`~repro.sim.arrivals.ArrivalProcess`
becomes one independent sim process issuing one operation through a
bound :class:`~repro.smock.ServiceProxy` — arrivals never wait for
completions, which is what makes the load *open-loop* and lets offered
load exceed service capacity.  The issuing user is drawn Zipf-skewed
from a generated roster (10k–100k simulated users multiplexed over a
handful of proxies via the per-request ``user=`` override), and the
operation itself comes from a pluggable factory so the same driver
fronts the mail and video services.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from ..sim.arrivals import ArrivalProcess, ArrivalStream
from ..sim.resources import Monitor
from ..smock import ServiceProxy
from .roster import generate_roster
from .zipf import ZipfSampler

__all__ = ["LoadConfig", "LoadResult", "OpenLoopDriver"]

#: op factory signature: (rng, user, roster) -> (op, payload, size_bytes)
OpFactory = Callable[[random.Random, str, Sequence[str]], Tuple[str, Dict[str, Any], int]]


@dataclass
class LoadConfig:
    """Parameters of one open-loop run (the arrival process is separate
    so one config can be swept across Poisson/flash shapes)."""

    duration_ms: float = 30_000.0
    #: extra simulated time after the last arrival for in-flight
    #: requests (including retry chains) to finish
    drain_ms: float = 60_000.0
    n_users: int = 10_000
    zipf_s: float = 1.1
    #: "timely" threshold: an ok response within this bound counts
    #: toward timely goodput (the default matches the mail SLO p50)
    deadline_ms: float = 2_000.0
    #: hard cap on arrivals (None = whatever the process generates)
    max_arrivals: Optional[int] = None
    seed: int = 0


@dataclass
class LoadResult:
    """Outcome counters of one open-loop run, in simulated terms.

    ``goodput_per_s`` divides by the *offered-load window* (not the
    drain), so protected and unprotected runs of the same scenario are
    directly comparable.
    """

    duration_ms: float
    deadline_ms: float
    offered: int = 0
    completed: int = 0
    ok: int = 0
    timely: int = 0
    failed: int = 0
    unfinished: int = 0
    #: failure classes -> count (timeout / shed / throttled /
    #: circuit_open / error)
    errors: Dict[str, int] = field(default_factory=dict)
    #: per-operation offered / ok counts (consumers like the chaos
    #: invariants need to know how many *sends* the load attempted)
    ops_offered: Dict[str, int] = field(default_factory=dict)
    ops_ok: Dict[str, int] = field(default_factory=dict)
    latency: Monitor = field(default_factory=lambda: Monitor("load"))

    @property
    def goodput_per_s(self) -> float:
        return self.ok / (self.duration_ms / 1e3) if self.duration_ms else 0.0

    @property
    def timely_goodput_per_s(self) -> float:
        return self.timely / (self.duration_ms / 1e3) if self.duration_ms else 0.0

    @property
    def availability(self) -> float:
        done = self.ok + self.failed
        return self.ok / done if done else 1.0

    def p(self, q: float) -> float:
        """Latency percentile (0..100) over *successful* requests."""
        return self.latency.percentile(q)


def classify_error(error: Optional[str]) -> str:
    """Map a failure response's error string to a coarse class."""
    if not error:
        return "error"
    if error.startswith("timeout"):
        return "timeout"
    if error.startswith("throttled"):
        return "throttled"
    if error.startswith("circuit open"):
        return "circuit_open"
    if "shed (accept queue full)" in error:
        return "shed"
    return "error"


class OpenLoopDriver:
    """Pump one arrival process into a pool of bound proxies."""

    def __init__(
        self,
        proxies: Sequence[ServiceProxy],
        arrival: ArrivalProcess,
        config: LoadConfig,
        ops: OpFactory,
    ) -> None:
        if not proxies:
            raise ValueError("need at least one bound proxy")
        self.proxies = list(proxies)
        self.arrival = arrival
        self.config = config
        self.ops = ops
        self.runtime = self.proxies[0].runtime
        self.roster = generate_roster(config.n_users)
        self._zipf = ZipfSampler(len(self.roster), config.zipf_s)
        self._rng = random.Random(f"load:{config.seed}")
        self.result = LoadResult(
            duration_ms=config.duration_ms, deadline_ms=config.deadline_ms
        )
        self.stream: Optional[ArrivalStream] = None
        self._inflight = 0

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> ArrivalStream:
        """Arm the arrival pump; returns its live stream handle."""
        if self.stream is not None:
            raise RuntimeError("driver already started")
        self.stream = self.arrival.drive(
            self.runtime.sim,
            self._on_arrival,
            self.config.duration_ms,
            limit=self.config.max_arrivals,
        )
        return self.stream

    @property
    def drained(self) -> bool:
        """Every arrival has fired and every issued request finished.

        External drivers (the chaos harness) must not quiesce while
        load is still in flight: a send completing during a final
        anti-entropy sweep re-dirties a replica that was already swept.
        """
        return (
            self.stream is not None
            and self.stream.exhausted
            and self._inflight == 0
        )

    def run(self) -> LoadResult:
        """Start, advance the simulator through load + drain, snapshot."""
        sim = self.runtime.sim
        deadline = sim.now + self.config.duration_ms + self.config.drain_ms
        self.start()
        while sim.now < deadline:
            before = sim.now
            sim.run(until=deadline)
            if sim.now == before:  # heap drained early
                break
        self.result.unfinished = self._inflight
        return self.result

    # -- per-arrival machinery ----------------------------------------------
    def _on_arrival(self, _t_ms: float) -> None:
        result = self.result
        result.offered += 1
        user = self.roster[self._zipf.sample(self._rng)]
        proxy = self.proxies[result.offered % len(self.proxies)]
        op, payload, size_bytes = self.ops(self._rng, user, self.roster)
        result.ops_offered[op] = result.ops_offered.get(op, 0) + 1
        self.runtime.sim.process(
            self._issue(proxy, op, payload, size_bytes, user),
            name=f"load:{result.offered}",
        )

    def _issue(
        self,
        proxy: ServiceProxy,
        op: str,
        payload: Dict[str, Any],
        size_bytes: int,
        user: str,
    ) -> Generator[Any, Any, None]:
        sim = self.runtime.sim
        result = self.result
        self._inflight += 1
        t0 = sim.now
        try:
            resp = yield from proxy.request(op, payload, size_bytes, user=user)
        finally:
            self._inflight -= 1
        result.completed += 1
        if resp.ok:
            result.ok += 1
            result.ops_ok[op] = result.ops_ok.get(op, 0) + 1
            elapsed = sim.now - t0
            result.latency.observe(elapsed)
            if elapsed <= self.config.deadline_ms:
                result.timely += 1
        else:
            result.failed += 1
            cls = classify_error(resp.error)
            result.errors[cls] = result.errors.get(cls, 0) + 1
