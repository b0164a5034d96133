"""Client workload of the case study (paper §4.2).

"Each client simulates the behavior of a cluster of users by sending out
100 messages and receiving messages 10 times at the maximum rate
permitted by a deployment."

A workload client drives one bound :class:`ServiceProxy`: ``n_sends``
send operations back-to-back (no think time), then ``n_receives``
fetches.  Each send aggregates ``cluster_size`` users' messages
(``multiplicity`` for the coherence unit-count), mirroring the paper's
"cluster of users" framing; sensitivities are drawn within the site's
trust bound (users at a site operate at the levels their site is
entrusted with), so sends are serviceable locally and the Figure 7
send-latency groups emerge from coherence policy alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Generator, List, Optional, Sequence

from ...sim.resources import Monitor
from ...smock import ServiceProxy

__all__ = [
    "WorkloadConfig",
    "WorkloadResult",
    "mail_workload",
    "open_loop_mail_ops",
]


@dataclass
class WorkloadConfig:
    """Parameters of one workload client."""

    user: str
    peers: Sequence[str]
    n_sends: int = 100
    n_receives: int = 10
    cluster_size: int = 10
    #: highest sensitivity this site's users operate at
    max_sensitivity: int = 5
    #: fraction of receives probing above the local view's bound (misses)
    remote_fetch_fraction: float = 0.2
    #: actual message body size; kept small because bodies really are
    #: encrypted/decrypted in pure Python on every hop
    body_bytes: int = 256
    seed: int = 0


@dataclass
class WorkloadResult:
    """Measured latencies of one workload client, in simulated ms."""

    user: str
    send_latency: Monitor = field(default_factory=lambda: Monitor("send"))
    receive_latency: Monitor = field(default_factory=lambda: Monitor("receive"))
    errors: List[str] = field(default_factory=list)

    @property
    def mean_send_ms(self) -> float:
        return self.send_latency.mean

    @property
    def mean_receive_ms(self) -> float:
        return self.receive_latency.mean


def mail_workload(
    proxy: ServiceProxy, config: WorkloadConfig
) -> Generator[Any, Any, WorkloadResult]:
    """Process generator: run one client's workload, measuring latencies."""
    rng = random.Random((config.seed, config.user).__repr__())
    sim = proxy.runtime.sim
    result = WorkloadResult(user=config.user)
    body = "x" * config.body_bytes

    # Per-op latency histograms at the workload layer (windowed, so SLO
    # reports get per-interval percentiles); handles resolved once.
    metrics = proxy.runtime.obs.metrics
    send_hist = recv_hist = None
    if metrics.enabled:
        send_hist = metrics.windowed_histogram(
            "workload.op_sim_ms", service="mail", op="send_mail"
        )
        recv_hist = metrics.windowed_histogram(
            "workload.op_sim_ms", service="mail", op="fetch_mail"
        )

    peers = list(config.peers)
    for i in range(config.n_sends):
        recipient = rng.choice(peers) if peers else config.user
        sensitivity = rng.randint(1, config.max_sensitivity)
        t0 = sim.now
        resp = yield from proxy.request(
            "send_mail",
            payload={
                "recipient": recipient,
                "sensitivity": sensitivity,
                "body": body,
                "multiplicity": config.cluster_size,
            },
            size_bytes=config.body_bytes + 128,
        )
        result.send_latency.observe(sim.now - t0)
        if send_hist is not None:
            send_hist.observe(sim.now - t0)
        if not resp.ok:
            result.errors.append(f"send[{i}]: {resp.error}")

    for i in range(config.n_receives):
        probe_remote = rng.random() < config.remote_fetch_fraction
        max_s = 5 if probe_remote else config.max_sensitivity
        t0 = sim.now
        resp = yield from proxy.request(
            "fetch_mail",
            payload={"user": config.user, "max_sensitivity": max_s},
            size_bytes=256,
        )
        result.receive_latency.observe(sim.now - t0)
        if recv_hist is not None:
            recv_hist.observe(sim.now - t0)
        if not resp.ok:
            result.errors.append(f"receive[{i}]: {resp.error}")

    return result


def open_loop_mail_ops(
    send_fraction: float = 0.7,
    body_bytes: int = 64,
    max_sensitivity: int = 3,
    cluster_size: int = 1,
):
    """Op factory for the open-loop load driver (:mod:`repro.load`).

    Each arrival becomes one send (probability ``send_fraction``) or one
    fetch, shaped exactly like :func:`mail_workload`'s requests — the
    arriving user is the sender/reader, the recipient is drawn uniformly
    from the roster (hot-*user* skew already comes from the driver's
    Zipf draw over arriving users).  The body is constant so the
    cached crypto path behaves as in steady state; the simulated CPU
    charge per request is unaffected.
    """
    if not 0.0 <= send_fraction <= 1.0:
        raise ValueError(f"send_fraction must be in [0, 1], got {send_fraction}")
    body = "x" * body_bytes

    def ops(rng: random.Random, user: str, roster: Sequence[str]):
        if rng.random() < send_fraction:
            recipient = roster[rng.randrange(len(roster))]
            payload = {
                "recipient": recipient,
                "sensitivity": rng.randint(1, max_sensitivity),
                "body": body,
                "multiplicity": cluster_size,
            }
            return ("send_mail", payload, body_bytes + 128)
        payload = {"user": user, "max_sensitivity": max_sensitivity}
        return ("fetch_mail", payload, 256)

    return ops
