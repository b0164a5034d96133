"""Worker processes and the null-message drive loop.

One *worker* hosts one or more logical processes (see
:meth:`PartitionPlan.placement` when there are fewer workers than
partitions) and runs :func:`drive`: a round-based loop that advances
every hosted LP to its safe horizon, flushes outbound messages and
grown adverts, and — when nothing moved and nothing is done — blocks on
the worker's peer sockets until a peer's traffic raises a horizon.

Workers are *persistent and warm-started*: the topology, the partition
plan, and the program are shipped exactly once as process arguments
(fork makes this a copy-on-write no-op); afterwards only timestamped
events and tiny null messages cross process boundaries.  Each round
batches everything bound for a given peer worker into one frame, so
synchronization costs O(active channels) writes per round, not one per
message.

The same :func:`drive` loop also powers the ``workers=1`` in-process
mode through :class:`InlineRouter` — identical protocol, no sockets —
which is what makes cross-worker-count determinism testable cheaply.
"""

from __future__ import annotations

import pickle
import selectors
import socket
import struct
import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..events import SimulationError
from .channel import Advert, RemoteMessage
from .lp import LogicalProcess
from .partition import PartitionPlan

__all__ = ["InlineRouter", "SocketRouter", "drive", "worker_main"]

#: give up if a worker sits quiescent-but-not-done this long (wall s).
DEADLOCK_TIMEOUT_S = 60.0
#: single blocking-poll slice, so deadlock accounting stays responsive.
POLL_SLICE_S = 1.0
#: a frame on a peer socket: this length prefix, then one pickled batch.
_FRAME = struct.Struct("!Q")
#: the empty frame: "this worker is done and will send nothing more".
_BYE = _FRAME.pack(0)
#: bytes asked of a socket per read; a shorter answer means it is drained.
_RECV_BYTES = 1 << 16


class InlineRouter:
    """Zero-copy router for colocated logical processes."""

    batches_sent = 0
    bytes_sent = 0

    def __init__(self, lps: Dict[int, LogicalProcess]) -> None:
        self._lps = lps

    def send_message(self, dst_rank: int, msg: RemoteMessage) -> None:
        self._lps[dst_rank].observe_message(msg)

    def send_advert(self, dst_rank: int, advert: Advert) -> None:
        self._lps[dst_rank].observe_advert(advert)

    def flush_round(self) -> None:  # nothing buffered
        pass

    def poll(self, block: bool) -> bool:
        return False


class SocketRouter:
    """Routes channel traffic between workers over one stream socket per
    peer worker, delivering locally when the destination LP is colocated.

    Outbound items are batched per destination worker per round and
    pickled once; a frame carries a list of ``("m", rank, msg)`` /
    ``("a", rank, adv)`` tuples.  A stream socket delivers bytes in the
    order written, which is the per-producer FIFO the guarantee algebra
    relies on (a channel's clocks arrive non-decreasing).

    The worker's own thread writes the frames: there is no feeder thread
    that must win the GIL from the drive loop before a peer hears
    anything.  The sockets are non-blocking, and a write that would
    block — the peer's socket buffer is full — reads this worker's own
    sockets into unbounded buffers while it waits.  So every worker is
    at all times computing, or draining what its peers send, and two
    workers flushing more than a socket buffer at each other both finish.

    A worker that finishes says so with an empty frame and then keeps
    draining until every peer has said the same (:meth:`close`).  Hence
    a socket that reads EOF before that frame, or refuses a write,
    belongs to a peer that died mid-run, and is reported at once rather
    than left to the tripwire.
    """

    def __init__(
        self,
        lps: Dict[int, LogicalProcess],
        placement: List[List[int]],
        peers: Dict[int, socket.socket],
        deadlock_timeout_s: float = DEADLOCK_TIMEOUT_S,
    ) -> None:
        self._lps = lps
        self._placement = placement
        self._worker_of = {r: w for w, ranks in enumerate(placement) for r in ranks}
        self._peers = peers
        self._deadlock_timeout_s = deadlock_timeout_s
        self._pending: Dict[int, List[Tuple]] = {}
        #: bytes read from each peer that do not yet make a whole frame.
        self._partial = {w: bytearray() for w in peers}
        #: whole batches read but not yet delivered, in arrival order.
        self._arrived: List[List[Tuple]] = []
        #: peers that have not yet sent their empty frame.
        self._running = set(peers)
        self._selector = selectors.DefaultSelector()
        for w, sock in peers.items():
            sock.setblocking(False)
            self._selector.register(sock, selectors.EVENT_READ, w)
        self.batches_sent = 0
        self.bytes_sent = 0

    def send_message(self, dst_rank: int, msg: RemoteMessage) -> None:
        lp = self._lps.get(dst_rank)
        if lp is not None:
            lp.observe_message(msg)
        else:
            w = self._worker_of[dst_rank]
            self._pending.setdefault(w, []).append(("m", dst_rank, msg))

    def send_advert(self, dst_rank: int, advert: Advert) -> None:
        lp = self._lps.get(dst_rank)
        if lp is not None:
            lp.observe_advert(advert)
        else:
            w = self._worker_of[dst_rank]
            self._pending.setdefault(w, []).append(("a", dst_rank, advert))

    def flush_round(self) -> None:
        pending, self._pending = self._pending, {}
        for w in sorted(pending):
            blob = pickle.dumps(pending[w], pickle.HIGHEST_PROTOCOL)
            self._write(w, _FRAME.pack(len(blob)) + blob)
            self.batches_sent += 1
            self.bytes_sent += len(blob)

    def poll(self, block: bool) -> bool:
        """Deliver what the peers have sent; optionally wait one slice
        for something to arrive.  Returns True when anything did, even
        a piece of a frame: a peer that is still writing is progress."""
        heard = self._wait(POLL_SLICE_S if block else 0.0)
        arrived, self._arrived = self._arrived, []
        for batch in arrived:
            for tag, dst_rank, item in batch:
                if tag == "m":
                    self._lps[dst_rank].observe_message(item)
                else:
                    self._lps[dst_rank].observe_advert(item)
        return heard or bool(arrived)

    def close(self) -> None:
        """Tell every peer this worker is done, then keep draining (and
        discarding) until they have all said the same, so that nobody
        ever writes to a socket whose far end is gone."""
        for w in sorted(self._peers):
            self._write(w, _BYE)
        while self._running:
            self._wait(POLL_SLICE_S)
            self._arrived.clear()
        self._selector.close()
        for sock in self._peers.values():
            sock.close()

    def _lost(self, w: int) -> SimulationError:
        return SimulationError(
            f"worker {w} (ranks {self._placement[w]}) closed its channel mid-run"
        )

    def _write(self, w: int, frame: bytes) -> None:
        sock = self._peers[w]
        view = memoryview(frame)
        idle_slices = 0
        while view:
            try:
                view = view[sock.send(view):]
                continue
            except BlockingIOError:
                pass
            except OSError as exc:  # EPIPE, ECONNRESET
                raise self._lost(w) from exc
            # The peer's buffer is full: read our own sockets until it
            # has room, under the same tripwire as a blocking poll.
            if self._wait(POLL_SLICE_S, writing=w):
                idle_slices = 0
                continue
            idle_slices += 1
            if idle_slices * POLL_SLICE_S >= self._deadlock_timeout_s:
                raise SimulationError(
                    f"parallel deadlock: worker {w} took no bytes for "
                    f"{self._deadlock_timeout_s:.0f}s"
                )

    def _wait(self, timeout: float, writing: Optional[int] = None) -> bool:
        """Wait up to ``timeout`` for bytes from any peer (or for room
        to write to peer ``writing``) and cut what arrived into batches.
        Returns True when any socket was ready."""
        selector = self._selector
        if writing is not None:
            both = selectors.EVENT_READ | selectors.EVENT_WRITE
            selector.modify(self._peers[writing], both, writing)
        ready = selector.select(timeout)
        if writing is not None:
            selector.modify(self._peers[writing], selectors.EVENT_READ, writing)
        for key, events in ready:
            if events & selectors.EVENT_READ:
                self._receive(key.data, key.fileobj)
        return bool(ready)

    def _receive(self, w: int, sock: socket.socket) -> None:
        partial = self._partial[w]
        while True:
            try:
                chunk = sock.recv(_RECV_BYTES)
            except BlockingIOError:
                break
            except OSError as exc:  # ECONNRESET
                raise self._lost(w) from exc
            if not chunk:
                if w in self._running:
                    raise self._lost(w)
                self._selector.unregister(sock)
                return
            partial += chunk
            if len(chunk) < _RECV_BYTES:
                break
        while len(partial) >= _FRAME.size:
            (size,) = _FRAME.unpack_from(partial)
            end = _FRAME.size + size
            if len(partial) < end:
                break
            if size:
                self._arrived.append(pickle.loads(partial[_FRAME.size:end]))
            else:
                self._running.discard(w)
            del partial[:end]


def drive(
    lps: Dict[int, LogicalProcess],
    router: Any,
    deadlock_timeout_s: float = DEADLOCK_TIMEOUT_S,
) -> Dict[str, Any]:
    """Run the conservative protocol over ``lps`` until all are done;
    returns this worker's synchronization counters (its ``sync`` row).

    Each round: deliver pending ingress, advance every LP to its safe
    horizon, flush its messages and (if grown) its advert.  Quiescence
    with undone LPs means we must wait on peers; in inline mode — where
    there are no peers — it means a protocol bug, and with positive
    lookahead it cannot legally happen, so it raises after
    ``deadlock_timeout_s`` wall seconds without progress.
    """
    idle_slices = 0
    rounds = blocking_waits = adverts_sent = 0
    blocked_s = 0.0
    while True:
        rounds += 1
        progressed = router.poll(block=False)
        for rank in sorted(lps):
            lp = lps[rank]
            if lp.advance():
                progressed = True
            for dst_rank, msg in lp.take_outgoing():
                router.send_message(dst_rank, msg)
                progressed = True
            advert = lp.take_advert()
            if advert is not None:
                for dst_rank in lp.plan.out_neighbors(rank):
                    router.send_advert(dst_rank, advert)
                    adverts_sent += 1
                progressed = True
        router.flush_round()
        if all(lp.done() for lp in lps.values()):
            return {
                "ranks": sorted(lps),
                "rounds": rounds,
                "blocking_waits": blocking_waits,
                "blocked_s": round(blocked_s, 4),
                "adverts_sent": adverts_sent,
                "batches_sent": router.batches_sent,
                "bytes_sent": router.bytes_sent,
                "threads_at_exit": threading.active_count(),
            }
        if progressed:
            idle_slices = 0
            continue
        blocking_waits += 1
        wait_start = time.perf_counter()
        heard = router.poll(block=True)
        blocked_s += time.perf_counter() - wait_start
        if not heard:
            idle_slices += 1
            if idle_slices * POLL_SLICE_S >= deadlock_timeout_s:
                stuck = {
                    lp.plan.partitions[r].name: (lp.sim.now, lp.horizon())
                    for r, lp in lps.items()
                    if not lp.done()
                }
                raise SimulationError(
                    f"parallel deadlock: no progress for "
                    f"{deadlock_timeout_s:.0f}s; stalled partitions "
                    f"(name: now, horizon) = {stuck}; if the workload is "
                    f"legitimately slow, raise the tripwire via "
                    f"run_parallel(..., deadlock_timeout_s=...) or "
                    f"`parallel-sim --deadlock-timeout`"
                )
        else:
            idle_slices = 0


def worker_main(
    worker_id: int,
    plan: PartitionPlan,
    network: Any,
    program: Callable,
    config: Any,
    until: float,
    placement: List[List[int]],
    sockets: Dict[int, Dict[int, socket.socket]],
    result_pipes: Dict[int, Any],
    deadlock_timeout_s: float = DEADLOCK_TIMEOUT_S,
) -> None:
    """Entry point of one persistent worker process.

    ``sockets[a][b]`` is worker ``a``'s end of its socket to ``b`` and
    ``result_pipes[a]`` its pipe to the coordinator.  A forked worker
    inherits every one of them, so it closes all but its own: a peer's
    death must read as EOF, which it cannot while a third process still
    holds the dead end open.
    """
    for owner, ends in sockets.items():
        if owner != worker_id:
            for sock in ends.values():
                sock.close()
    for owner, pipe in result_pipes.items():
        if owner != worker_id:
            pipe.close()
    result_pipe = result_pipes[worker_id]
    try:
        lps = {
            rank: LogicalProcess(plan, rank, network, program, config, until)
            for rank in placement[worker_id]
        }
        router = SocketRouter(
            lps, placement, sockets[worker_id], deadlock_timeout_s
        )
        sync = drive(lps, router, deadlock_timeout_s)
        results = {rank: lp.result() for rank, lp in lps.items()}
        result_pipe.send(("ok", (results, sync)))
        router.close()
    except BaseException:  # noqa: BLE001 - ship the traceback to the parent
        result_pipe.send(("error", traceback.format_exc()))
