"""Public entry point: partition, spawn workers, collect, summarize.

``run_parallel(..., workers=1)`` executes every logical process in the
calling process through the identical protocol (no multiprocessing), so
worker count is purely a *placement* decision: the partition plan, the
event keys, the channel lookaheads and the message sequence numbers are
all derived from the topology alone, which is what makes
``result.signature()`` identical across workers=1/2/4 — the property
the determinism tests pin.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..events import SimulationError
from .lp import LogicalProcess, PartitionContext
from .partition import PartitionPlan, partition_network
from .worker import DEADLOCK_TIMEOUT_S, InlineRouter, drive, worker_main

__all__ = ["ParallelRunResult", "run_parallel"]

#: how long the coordinator waits for any single worker's result.
RESULT_TIMEOUT_S = 300.0


@dataclass
class ParallelRunResult:
    """Outcome of one parallel run, mergeable and signable.

    ``partitions`` maps partition name to its logical process's result
    dict (clock, event count, program counters, latency samples — every
    observable outcome).  ``signature()`` hashes exactly those
    observables, *excluding* wall time, so equal signatures mean equal
    simulations.
    """

    workers_requested: int
    workers_used: int
    until_ms: float
    method: str
    min_lookahead_ms: float
    partitions: Dict[str, Dict[str, Any]]
    wall_s: float = 0.0
    #: which ranks shared a worker process, one sorted list per worker.
    placement: List[List[int]] = field(default_factory=list)
    #: the tightest channel that crossed a process boundary (None when
    #: none did) — what the workers' blocking waits are paced by.
    min_cross_worker_lookahead_ms: Optional[float] = None
    #: one row of synchronization counters per worker, in worker order:
    #: hosted ranks, drive rounds, blocking waits and the wall seconds
    #: spent in them, adverts, batches and bytes sent, and the worker's
    #: thread count when its drive loop returned.  Wall-side facts, so
    #: never part of the signature.
    sync: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def total_events(self) -> int:
        return sum(p["events"] for p in self.partitions.values())

    @property
    def events_per_sec(self) -> float:
        return self.total_events / self.wall_s if self.wall_s > 0 else 0.0

    def merged_counters(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for p in self.partitions.values():
            for key, val in p.get("counters", {}).items():
                out[key] = out.get(key, 0) + val
        return {k: out[k] for k in sorted(out)}

    def latency_samples(self) -> List[float]:
        """All end-to-end latency samples, ordered by partition name
        then by each partition's deterministic execution order."""
        samples: List[float] = []
        for name in sorted(self.partitions):
            samples.extend(self.partitions[name].get("latencies_ms", []))
        return samples

    def signature(self) -> str:
        """sha256 over the observable outcomes (never wall time)."""
        canonical = {
            "until_ms": self.until_ms,
            "method": self.method,
            "partitions": {
                name: self.partitions[name] for name in sorted(self.partitions)
            },
        }
        blob = json.dumps(canonical, sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode()).hexdigest()

    def as_dict(self) -> Dict[str, Any]:
        return {
            "workers_requested": self.workers_requested,
            "workers_used": self.workers_used,
            "until_ms": self.until_ms,
            "method": self.method,
            "min_lookahead_ms": self.min_lookahead_ms,
            "total_events": self.total_events,
            "events_per_sec": round(self.events_per_sec, 1),
            "wall_s": round(self.wall_s, 4),
            "signature": self.signature(),
            "placement": self.placement,
            "min_cross_worker_lookahead_ms": self.min_cross_worker_lookahead_ms,
            "sync": self.sync,
            "partitions": self.partitions,
        }

    def sync_summary(self) -> str:
        """The ``sync`` block on one line."""
        workers = "; ".join(
            f"ranks {row['ranks']}: {row['rounds']} rounds, "
            f"{row['blocking_waits']} waits ({row['blocked_s']:.3f}s), "
            f"{row['batches_sent']} batches ({row['bytes_sent']} B), "
            f"{row['threads_at_exit']} thread(s)"
            for row in self.sync
        )
        look = self.min_cross_worker_lookahead_ms
        crossing = "nothing crosses workers" if look is None else (
            f"cross-worker lookahead={look}ms"
        )
        return f"placement={self.placement} {crossing} | {workers}"


def _mp_context():
    """Prefer fork: workers warm-start by inheriting the parent image,
    so the topology/program ship for free.  Fall back to spawn where
    fork is unavailable (then everything must be picklable, which the
    public surface already requires)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def run_parallel(
    network: Any,
    program: Callable[[PartitionContext, Any], None],
    config: Any = None,
    *,
    workers: int = 1,
    until: float,
    plan: Optional[PartitionPlan] = None,
    deadlock_timeout_s: float = DEADLOCK_TIMEOUT_S,
) -> ParallelRunResult:
    """Run ``program`` over ``network`` on the conservative parallel
    kernel and return a :class:`ParallelRunResult`.

    ``program(ctx, config)`` is called once per partition at t=0 with
    that partition's :class:`PartitionContext`; it must be a module-level
    callable (workers may live in other processes) and fully seeded from
    ``config`` so runs are deterministic.  ``until`` is exclusive,
    exactly like ``Simulator.run``.  ``deadlock_timeout_s`` sets the
    per-worker no-progress tripwire (wall seconds); raise it for
    legitimately slow workloads.
    """
    if until is None or not until > 0:  # also rejects NaN
        raise SimulationError(f"run_parallel needs a positive until, got {until!r}")
    if workers < 1:
        raise SimulationError(f"workers must be >= 1, got {workers}")
    if plan is None:
        plan = partition_network(network)
    return _run_placed(
        plan, network, program, config, until, plan.placement(workers),
        workers_requested=workers, deadlock_timeout_s=deadlock_timeout_s,
    )


def _run_placed(
    plan: PartitionPlan,
    network: Any,
    program: Callable,
    config: Any,
    until: float,
    placement: List[List[int]],
    workers_requested: Optional[int] = None,
    deadlock_timeout_s: float = DEADLOCK_TIMEOUT_S,
) -> ParallelRunResult:
    """Run with partition rank ``r`` hosted by worker ``w`` for every
    ``r in placement[w]``.  Placement is invisible to results — it only
    decides which channel traffic crosses a process boundary versus
    staying in-process — so tests pass their own here to pin that."""
    start = time.perf_counter()
    if len(placement) == 1:
        lps = {
            rank: LogicalProcess(plan, rank, network, program, config, until)
            for rank in placement[0]
        }
        sync = [drive(lps, InlineRouter(lps), deadlock_timeout_s)]
        results = {rank: lp.result() for rank, lp in lps.items()}
    else:
        results, sync = _run_multiprocess(
            plan, network, program, config, until, placement, deadlock_timeout_s
        )
    wall = time.perf_counter() - start

    worker_of = {rank: w for w, ranks in enumerate(placement) for rank in ranks}
    crossing = [
        look
        for (src, dst), look in plan.lookahead_ms.items()
        if worker_of[src] != worker_of[dst]
    ]
    return ParallelRunResult(
        workers_requested=workers_requested or len(placement),
        workers_used=len(placement),
        until_ms=float(until),
        method=plan.method,
        min_lookahead_ms=plan.min_lookahead_ms,
        partitions={r["partition"]: r for r in results.values()},
        wall_s=wall,
        placement=placement,
        min_cross_worker_lookahead_ms=min(crossing, default=None),
        sync=sync,
    )


def _run_multiprocess(
    plan: PartitionPlan,
    network: Any,
    program: Callable,
    config: Any,
    until: float,
    placement: List[List[int]],
    deadlock_timeout_s: float,
) -> Tuple[Dict[int, Dict[str, Any]], List[Dict[str, Any]]]:
    # Imported here, as multiprocessing itself does for Pipe(): only a
    # multi-process run pays for loading it.
    from multiprocessing.connection import wait

    ctx = _mp_context()
    n_workers = len(placement)
    # One duplex socket per pair of workers, one result pipe per worker.
    sockets: Dict[int, Dict[int, socket.socket]] = {w: {} for w in range(n_workers)}
    for a in range(n_workers):
        for b in range(a + 1, n_workers):
            sockets[a][b], sockets[b][a] = socket.socketpair()
    readers, writers = {}, {}
    for w in range(n_workers):
        readers[w], writers[w] = ctx.Pipe(duplex=False)
    procs = {
        w: ctx.Process(
            target=worker_main,
            args=(
                w, plan, network, program, config, until, placement,
                sockets, writers, deadlock_timeout_s,
            ),
            name=f"pdes-worker-{w}",
            daemon=True,
        )
        for w in range(n_workers)
    }
    results: Dict[int, Dict[str, Any]] = {}
    sync: Dict[int, Dict[str, Any]] = {}
    died: List[str] = []
    failed: List[str] = []
    waiting = set(range(n_workers))
    timeout = RESULT_TIMEOUT_S
    try:
        try:
            for proc in procs.values():
                proc.start()
        finally:
            # The workers hold their ends now; ours would only mask an EOF.
            for ends in sockets.values():
                for sock in ends.values():
                    sock.close()
            for pipe in writers.values():
                pipe.close()
        while waiting and not died:
            # A result, or the death of a worker that has posted none:
            # whichever comes first.
            ready = wait(
                [readers[w] for w in waiting]
                + [procs[w].sentinel for w in waiting],
                timeout=timeout,
            )
            if not ready:
                break
            for w in sorted(waiting):
                if readers[w] not in ready and procs[w].sentinel not in ready:
                    continue
                waiting.discard(w)
                try:
                    # a dead worker's pipe reads EOF, unless it posted
                    # its result on the way out
                    status, payload = readers[w].recv()
                except (EOFError, OSError):
                    procs[w].join(timeout=5.0)
                    died.append(
                        f"worker {w} (ranks {placement[w]}) died with exit "
                        f"code {procs[w].exitcode} before posting a result"
                    )
                    continue
                if status == "error":
                    failed.append(f"worker {w} failed:\n{payload}")
                    # It may have failed because a peer died under it:
                    # give that peer's sentinel a moment to say so.
                    timeout = 1.0
                else:
                    results.update(payload[0])
                    sync[w] = payload[1]
        failure = "\n".join(died + failed)
        if waiting and not failure:
            failure = (
                f"coordinator timed out after {RESULT_TIMEOUT_S:.0f}s "
                f"waiting on workers {sorted(waiting)}"
            )
    finally:
        started = [proc for proc in procs.values() if proc.pid is not None]
        if waiting or died or failed:
            for proc in started:
                if proc.is_alive():
                    proc.terminate()
        for proc in started:
            proc.join(timeout=30.0)
        for pipe in readers.values():
            pipe.close()
    if failure:
        raise SimulationError(failure)
    return results, [sync[w] for w in range(n_workers)]
