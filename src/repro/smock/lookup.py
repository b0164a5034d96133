"""Jini-like attribute-based lookup service (paper §3.2).

"Service registration simply informs the generic server about the
availability of the service and installs a generic proxy into a
Jini-like namespace.  Clients locate and download the proxy by using an
attribute-based lookup service."

Registrations carry free-form attribute dictionaries; lookups match by
attribute subset.  A successful lookup *downloads* the proxy code to the
client's node (simulated transfer from the lookup host).

The service runs on one or more lookup hosts, each holding its own
registry.  A registration lands on the primary (the first host) and is
absorbed by the others; client lookups try the hosts primary-first and
fail over to a surviving one when a host is dead or unreachable.  With
one host it is the single lookup of the paper.

Registrations are optionally *leased* in the Jini sense (see
:mod:`repro.smock.leases`): when ``lease_config`` is set each service's
home node renews its entry on every host periodically — the renewal
heartbeats double as gossip that re-creates entries a host purged while
it was down — or the entry is purged and lookups raise
:class:`LookupError`.  Without leases entries are immortal and no
renewal loop runs.

Re-registering an existing name is a *renewal*, not a silent overwrite:
the existing registration object is kept (live proxies hold references
to it), its attributes/payload are refreshed, its lease (if any) is
extended, and the event is counted (``smock.lookup.reregistrations``)
and logged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple, TYPE_CHECKING

from ..network import NetworkError
from ..obs import get_logger
from ..sim import FaultError
from .leases import RENEWAL_BYTES, RENEWALS_PER_LEASE, Lease, LeaseConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .proxy import GenericProxy
    from .runtime import SmockRuntime

__all__ = ["LookupService", "ServiceRegistration", "LookupError", "DEFAULT_PROXY_CODE_BYTES"]

DEFAULT_PROXY_CODE_BYTES = 60_000

log = get_logger("smock.lookup")


class LookupError(KeyError):
    """No registration matches the requested attributes."""


@dataclass
class ServiceRegistration:
    """One registered service."""

    name: str
    attributes: Dict[str, Any] = field(default_factory=dict)
    proxy_code_bytes: int = DEFAULT_PROXY_CODE_BYTES
    #: node the service's renewals originate from (its generic-server
    #: host)
    home_node: Optional[str] = None
    #: lease state at the host holding this entry; ``None`` = immortal.
    lease: Optional[Lease] = None

    def matches(self, query: Dict[str, Any]) -> bool:
        return all(self.attributes.get(k) == v for k, v in query.items())


class _Registry:
    """The registry one lookup host holds."""

    def __init__(
        self, runtime: "SmockRuntime", host: str, lease_config: Optional[LeaseConfig]
    ) -> None:
        self.runtime = runtime
        self.host = host
        self.lease_config = lease_config
        self._registry: Dict[str, ServiceRegistration] = {}
        self.reregistrations = 0

    def register(
        self,
        name: str,
        attributes: Optional[Dict[str, Any]],
        proxy_code_bytes: int,
        home_node: str,
    ) -> ServiceRegistration:
        """Create the entry, or renew an existing one in place (the
        registration object is preserved so live proxies stay valid);
        the duplicate is counted and logged."""
        existing = self._registry.get(name)
        if existing is not None:
            existing.attributes = dict(attributes or {})
            existing.proxy_code_bytes = proxy_code_bytes
            existing.home_node = home_node
            if existing.lease is not None:
                existing.lease.renew(self.runtime.sim.now)
            elif self.lease_config is not None:
                existing.lease = self._grant_lease()
            self.reregistrations += 1
            self.runtime.obs.metrics.inc("smock.lookup.reregistrations")
            log.warning(
                "re-registration of %r treated as lease renewal",
                name,
                extra={
                    "fields": {
                        "service": name,
                        "host": self.host,
                        "reregistrations": self.reregistrations,
                        "sim_ms": self.runtime.sim.now,
                    }
                },
            )
            return existing
        reg = ServiceRegistration(
            name, dict(attributes or {}), proxy_code_bytes, home_node=home_node
        )
        if self.lease_config is not None:
            reg.lease = self._grant_lease()
        self._registry[name] = reg
        return reg

    def absorb(
        self,
        name: str,
        attributes: Dict[str, Any],
        proxy_code_bytes: int,
        home_node: str,
        now_ms: float,
        witness_crashes: int = 0,
    ) -> bool:
        """Gossip path: create-or-renew silently (no counter, no warning).

        One application-level ``register()`` lands on every host; only
        the primary applies the duplicate-detection semantics, the rest
        converge through here.  Returns ``True`` when the entry was
        (re-)created — i.e. this host had purged it — so the service can
        report a registration coming *back* after a lapse.
        """
        reg = self._registry.get(name)
        if reg is not None and reg.lease is not None and reg.lease.expired(now_ms):
            del self._registry[name]
            reg = None
        if reg is None:
            reg = ServiceRegistration(
                name, dict(attributes), proxy_code_bytes, home_node=home_node
            )
            if self.lease_config is not None:
                reg.lease = self._grant_lease(witness_crashes)
            self._registry[name] = reg
            return True
        reg.attributes = dict(attributes)
        reg.proxy_code_bytes = proxy_code_bytes
        reg.home_node = home_node
        if reg.lease is not None:
            reg.lease.renew(now_ms, witness_crashes=witness_crashes)
        elif self.lease_config is not None:
            reg.lease = self._grant_lease(witness_crashes)
        return False

    def _grant_lease(self, witness_crashes: int = 0) -> Lease:
        assert self.lease_config is not None
        return Lease.grant(
            self.runtime.sim.now, self.lease_config.duration_ms, witness_crashes
        )

    def purge_expired(
        self, now_ms: float, host_crashes: int
    ) -> List[Tuple[str, bool]]:
        """Drop expired entries; return ``(name, witnessed)`` per purge.

        ``witnessed`` is ``True`` only when this host stayed up since the
        lease was last renewed (``host_crashes`` unchanged) — the
        precondition for treating the expiry as evidence the *service*
        died rather than an artifact of our own downtime.
        """
        purged: List[Tuple[str, bool]] = []
        for name in sorted(self._registry):
            reg = self._registry[name]
            if reg.lease is None or not reg.lease.expired(now_ms):
                continue
            witnessed = host_crashes == reg.lease.witness_crashes
            del self._registry[name]
            self.runtime.obs.metrics.inc("smock.lookup.lease_expiries")
            log.warning(
                "lease expired for %r; registration purged",
                name,
                extra={
                    "fields": {
                        "service": name,
                        "host": self.host,
                        "expired_at_ms": reg.lease.expires_at_ms,
                        "witnessed": witnessed,
                        "sim_ms": now_ms,
                    }
                },
            )
            purged.append((name, witnessed))
        return purged

    def find(self, query: Dict[str, Any], now_ms: float) -> List[ServiceRegistration]:
        """All live registrations whose attributes are a superset of
        ``query``."""
        return [
            r for r in self._registry.values()
            if (r.lease is None or not r.lease.expired(now_ms)) and r.matches(query)
        ]

    def resolve(
        self, name: Optional[str] = None, query: Optional[Dict[str, Any]] = None
    ) -> ServiceRegistration:
        """Registry resolution only — no metrics, no proxy download.

        Raises :class:`LookupError` when nothing (live) matches; an
        expired entry is purged on the way out, exactly as if the sweep
        had already run.
        """
        now = self.runtime.sim.now
        if name is not None:
            reg = self._registry.get(name)
            if reg is not None and reg.lease is not None and reg.lease.expired(now):
                del self._registry[name]
                reg = None
            if reg is None:
                raise LookupError(f"no service registered as {name!r}")
            return reg
        matches = self.find(query or {}, now)
        if not matches:
            raise LookupError(f"no service matches {query!r}")
        return matches[0]


class LookupService:
    """Attribute lookup + proxy download over one or more lookup hosts."""

    def __init__(
        self,
        runtime: "SmockRuntime",
        hosts: List[str],
        lease_config: Optional[LeaseConfig] = None,
    ) -> None:
        if not hosts:
            raise ValueError("LookupService needs at least one host")
        if len(set(hosts)) != len(hosts):
            raise ValueError(f"duplicate lookup host in {hosts!r}")
        for host in hosts:
            runtime.transport.node(host)  # raises KeyError for unknown nodes
        self.runtime = runtime
        self.lease_config = lease_config
        #: one registry per host, the primary first
        self.replicas = [_Registry(runtime, host, lease_config) for host in hosts]
        self.lookups = 0
        self.failovers = 0
        #: ``(sim_ms, client_node, serving_host)`` per successful lookup —
        #: the chaos invariants read this to prove clients rebound
        #: through a *surviving* host during control-plane outages.
        self.lookup_log: List[Tuple[float, str, str]] = []
        #: set by ``enable_self_healing``: called as ``fn(name, alive)``
        #: when a lease lapses (``False``) or is re-granted after a lapse
        #: (``True``); feeds the replan loop via the network monitor.
        self.on_lease_event: Optional[Callable[[str, bool], None]] = None
        #: registered service → home node its renewals originate from.
        self._homes: Dict[str, str] = {}
        #: authoritative (attributes, proxy_code_bytes) per service, so a
        #: heartbeat can re-create a registration a host purged while it
        #: was down.
        self._specs: Dict[str, Tuple[Dict[str, Any], int]] = {}
        #: token of the live lease loop (``None`` when none runs): a loop
        #: keeps going only while it is still the current one, so a
        #: ``stop()`` + ``register()`` pair never leaves two loops.
        self._running: Optional[object] = None

    @property
    def hosts(self) -> List[str]:
        return [replica.host for replica in self.replicas]

    @property
    def reregistrations(self) -> int:
        return self.replicas[0].reregistrations

    # -- registration ------------------------------------------------------------
    def register(
        self,
        name: str,
        attributes: Optional[Dict[str, Any]] = None,
        proxy_code_bytes: int = DEFAULT_PROXY_CODE_BYTES,
        *,
        home_node: Optional[str] = None,
    ) -> ServiceRegistration:
        """Step 1 of Figure 1: the service registers its proxy.

        The primary gets full registration semantics (renewal-on-
        duplicate, the re-registration counter and warning); the other
        hosts absorb silently — one application-level registration must
        not be counted once per host.
        """
        home = home_node or self._homes.get(name) or self.runtime.server_node
        reg = self.replicas[0].register(name, attributes, proxy_code_bytes, home)
        for replica in self.replicas[1:]:
            replica.absorb(
                name, reg.attributes, reg.proxy_code_bytes, home, self.runtime.sim.now
            )
        self._homes[name] = home
        self._specs[name] = (dict(reg.attributes), reg.proxy_code_bytes)
        self._ensure_lease_loop()
        return reg

    def find(self, query: Dict[str, Any]) -> List[ServiceRegistration]:
        """Query the first host that is up (reads are local)."""
        now = self.runtime.sim.now
        for replica in self.replicas:
            if self.runtime.transport.node(replica.host).up:
                return replica.find(query, now)
        return self.replicas[0].find(query, now)

    # -- client path -------------------------------------------------------------
    def lookup(
        self,
        client_node: str,
        name: Optional[str] = None,
        query: Optional[Dict[str, Any]] = None,
    ) -> Generator[Any, Any, "GenericProxy"]:
        """Step 2 of Figure 1: locate the service and download its proxy.

        Process generator; returns a :class:`GenericProxy` bound to the
        client's node.  Hosts are tried primary-first: one is skipped —
        and the next tried — when it is down, the proxy download fails
        en route (crash or partition), or the registration is
        missing/expired there.  Raises the last error when every host
        fails.
        """
        from .proxy import GenericProxy  # local import: avoid cycle

        self.lookups += 1
        self.runtime.obs.metrics.inc("smock.lookups")
        transport = self.runtime.transport
        last_error: Optional[BaseException] = None
        for index, replica in enumerate(self.replicas):
            host = replica.host
            if not transport.node(host).up:
                last_error = FaultError(f"lookup replica host {host!r} is down")
                continue
            try:
                reg = replica.resolve(name=name, query=query)
            except LookupError as exc:  # not registered *here*
                last_error = exc
                continue
            try:
                yield from transport.deliver(host, client_node, reg.proxy_code_bytes)
            except (NetworkError, FaultError) as exc:
                last_error = exc
                continue
            if index > 0:
                self.failovers += 1
                self.runtime.obs.metrics.inc("smock.lookup.failovers")
            self.lookup_log.append((self.runtime.sim.now, client_node, host))
            return GenericProxy(self.runtime, reg, client_node)
        assert last_error is not None  # there is always a host
        raise last_error

    # -- lease machinery ---------------------------------------------------------
    def _ensure_lease_loop(self) -> None:
        if self.lease_config is None or self._running is not None:
            return
        self._running = token = object()
        self.runtime.sim.process(self._lease_loop(token), name="lookup-leases")

    def stop(self) -> None:
        """Stop renewing/sweeping (lets a bare ``sim.run()`` drain)."""
        self._running = None

    def _lease_loop(self, token: object) -> Generator[Any, Any, None]:
        """One heartbeat per interval per (service, host) pair, then an
        expiry sweep.  Renewals originate from each service's *home* node
        — a crashed home stops renewing and its leases lapse, which is
        the whole point.  Runs while ``token`` is the current loop's."""
        assert self.lease_config is not None
        sim = self.runtime.sim
        transport = self.runtime.transport
        interval = self.lease_config.duration_ms / RENEWALS_PER_LEASE
        while self._running is token:
            yield sim.timeout(interval)
            if self._running is not token:
                return
            for name in sorted(self._homes):
                home = self._homes[name]
                if not transport.node(home).up:
                    continue  # dead services do not renew
                for replica in self.replicas:
                    host = transport.node(replica.host)
                    if not host.up:
                        continue
                    try:
                        yield from transport.deliver(home, replica.host, RENEWAL_BYTES)
                    except (NetworkError, FaultError):
                        continue  # crashed or partitioned mid-flight
                    attributes, code_bytes = self._specs[name]
                    regrant = replica.absorb(
                        name,
                        attributes,
                        code_bytes,
                        home,
                        sim.now,
                        witness_crashes=host.crashes,
                    )
                    if regrant and self.on_lease_event is not None:
                        # Re-granted after a lapse: the service is back.
                        self.on_lease_event(name, True)
            for replica in self.replicas:
                host = transport.node(replica.host)
                if not host.up:
                    continue  # a crashed host cannot sweep
                for name, witnessed in replica.purge_expired(
                    sim.now, host_crashes=host.crashes
                ):
                    if witnessed and self.on_lease_event is not None:
                        self.on_lease_event(name, False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LookupService hosts={self.hosts} "
            f"leases={'on' if self.lease_config else 'off'} "
            f"lookups={self.lookups} failovers={self.failovers}>"
        )
