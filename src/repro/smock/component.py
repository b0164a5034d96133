"""Runtime component model.

A :class:`RuntimeComponent` is a live instance of a spec unit installed
on a simulated node.  Components communicate only through
:class:`ServerStub` objects bound by the deployer according to the
planned linkages — calling ``self.call('ServerInterface', req)`` charges
the simulated network and the remote node's CPU exactly as the plan's
paths dictate.

Request handling is synchronous-RPC-over-generators: a component's
``handle`` is a generator; serving a request charges the component's
declared per-request CPU on its node before dispatching.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, TYPE_CHECKING

from ..network import NetworkError
from ..sim import FaultError, NodeDownError, SimNode, Simulator
from ..spec import ComponentDef
from .messages import RequestError, ServiceRequest, ServiceResponse

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runtime import SmockRuntime

__all__ = ["RuntimeComponent", "ServerStub"]

#: per-class op dispatch tables (op name -> unbound handler), built once —
#: ``serve`` runs per simulated message and getattr-with-f-string per call
#: shows up at benchmark scale.  ``op_<name> = None`` class attributes
#: deliberately do NOT enter the table: they mean "interface narrowed away",
#: and must keep producing the "has no op" failure response.
_DISPATCH_TABLES: Dict[type, Dict[str, Callable[..., Any]]] = {}


def _dispatch_table(cls: type) -> Dict[str, Callable[..., Any]]:
    table = _DISPATCH_TABLES.get(cls)
    if table is None:
        table = {}
        for name in dir(cls):
            if name.startswith("op_"):
                handler = getattr(cls, name)
                if handler is not None:
                    table[name[3:]] = handler
        _DISPATCH_TABLES[cls] = table
    return table


def _answer(resp: ServiceResponse) -> Generator[Any, Any, ServiceResponse]:
    """A generator that yields nothing and returns ``resp``."""
    return resp
    yield  # pragma: no cover - makes this a generator


class ServerStub:
    """Client-side handle for one planned linkage."""

    def __init__(
        self,
        runtime: "SmockRuntime",
        interface: str,
        client_node: str,
        server: "RuntimeComponent",
    ) -> None:
        self.runtime = runtime
        self.interface = interface
        self.client_node = client_node
        self.server = server
        self.calls = 0

    def request(self, req: ServiceRequest) -> Generator[Any, Any, ServiceResponse]:
        """Process generator: full round trip to the bound server.

        A network partition (no route to the server) or an infrastructure
        fault (crashed host, severed link mid-transfer) surfaces as a
        *retryable* failure response, not an exception — callers decide
        whether to retry, fail over, or report upstream.

        When a :class:`FaultHook` is installed, its message-level
        verdicts apply here at the RPC boundary (``deliver`` only moves
        byte counts): ``("reorder", hold_ms)`` holds the request back so
        later traffic overtakes it; ``"corrupt"`` garbles the request
        past the link — it still burns the round trip but the receiver
        rejects it (retryable failure, like a checksum mismatch);
        ``"duplicate"`` delivers the request to the server *twice*,
        exercising the receiver's dedup (idempotency keys, version
        frontier) — the caller sees the first response.
        """
        self.calls += 1
        transport = self.runtime.transport
        client_node = self.client_node
        server_node = self.server.node.name
        # deliver() moves nothing between two components on one node.
        remote = client_node != server_node
        try:
            hook = transport.fault_hook
            verdicts = (
                hook.on_message(client_node, server_node, req.size_bytes)
                if hook is not None
                else ()
            )
            for verdict in verdicts:
                if isinstance(verdict, tuple) and verdict[0] == "reorder":
                    transport.messages_reordered += 1
                    yield self.runtime.sim.timeout(float(verdict[1]))
            if remote:
                yield from transport.deliver(client_node, server_node, req.size_bytes)
            if "corrupt" in verdicts:
                transport.messages_corrupted += 1
                return ServiceResponse.failure(
                    f"corrupt: {client_node} -> {server_node}: "
                    f"request {req.op!r} failed integrity check",
                    retryable=True,
                )
            resp = yield from self.server.serve(req)
            if "duplicate" in verdicts:
                transport.messages_duplicated += 1
                yield from self.server.serve(req)
            if remote:
                yield from transport.deliver(server_node, client_node, resp.size_bytes)
        except (NetworkError, FaultError) as exc:
            return ServiceResponse.failure(
                f"unreachable: {client_node} -> {server_node}: {exc}",
                retryable=True,
            )
        return resp

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ServerStub {self.interface} -> {self.server.label}>"


class RuntimeComponent:
    """Base class for live component instances.

    Subclasses implement operations as ``op_<name>`` generator methods,
    which the default :meth:`dispatch` routes ``op`` to, or override
    :meth:`dispatch` itself (a generator, or a method returning one).
    """

    def __init__(
        self,
        runtime: "SmockRuntime",
        unit: ComponentDef,
        node: SimNode,
        factor_values: Dict[str, Any],
        instance_id: str,
    ) -> None:
        self.runtime = runtime
        self.sim: Simulator = runtime.sim
        self.unit = unit
        self.node = node
        self.factor_values = dict(factor_values)
        self.instance_id = instance_id
        #: the hosted service this instance belongs to; set by the
        #: deployer/preinstall right after construction
        self.bundle: Any = None
        #: interface name -> bound stub(s); the first stub is the default
        self.servers: Dict[str, List[ServerStub]] = {}
        #: service times (sim ms) of the requests served since the
        #: telemetry scan last took them; kept only while the runtime
        #: ``records_service_times`` (a TelemetrySampler is attached)
        self.service_times: List[float] = []
        self.requests_served = 0
        #: requests past admission and not yet responded; the autonomic
        #: manager's live-migration drain waits for this to hit zero
        #: before retiring the instance
        self.inflight = 0
        # Hot-path handles, resolved once: unit/node/factor_values are
        # fixed for the instance's lifetime, so the label string, CPU
        # charge, and op dispatch table never change after construction.
        factors = ",".join(f"{k}={v}" for k, v in sorted(self.factor_values.items()))
        suffix = f"[{factors}]" if factors else ""
        self._label = f"{self.unit.name}{suffix}@{self.node.name}"
        self._cpu_per_request = unit.behaviors.cpu_per_request
        self._ops = _dispatch_table(type(self))
        #: set by fault injection when the hosting node crashes; the live
        #: instance is gone for good — a restarted node comes back empty
        #: and only replanning re-installs components.
        self.failed = False
        #: the coherence directory's id for this instance while it is a
        #: registered data-view replica (see
        #: :meth:`ServiceBundle.register_replica`); ``None`` otherwise
        self.replica_id: Optional[int] = None

    # -- identity -----------------------------------------------------------
    @property
    def node_name(self) -> str:
        return self.node.name

    @property
    def coherence(self):
        """The coherence directory of this instance's service."""
        return self.bundle.coherence

    @property
    def label(self) -> str:
        return self._label

    # -- lifecycle hooks ------------------------------------------------------
    def on_install(self) -> None:
        """Called by the node wrapper once the instance is initialized."""

    def on_linked(self) -> None:
        """Called after all required interfaces have been bound."""

    def stop(self) -> None:
        """Called when the instance's host dies: end any background
        process the instance runs."""

    def on_invalidate(self, updates: List[Any]) -> None:
        """Coherence hook: conflicting remote updates occurred."""

    def write_back(self) -> Generator[Any, Any, None]:
        """Coherence hook: reconcile this replica's buffered updates with
        upstream (see :meth:`ServiceBundle.flush`).  A component that
        buffers nothing, such as a cache view, has nothing to write back.
        """
        return
        yield  # pragma: no cover - generator marker

    # -- wiring ---------------------------------------------------------------
    def bind_server(self, interface: str, stub: ServerStub) -> None:
        self.servers.setdefault(interface, []).append(stub)

    def stub_for(self, interface: str) -> ServerStub:
        stubs = self.servers.get(interface)
        if not stubs:
            raise RequestError(f"{self.label} has no bound server for {interface!r}")
        return stubs[0]

    def call(
        self, interface: str, req: ServiceRequest
    ) -> Generator[Any, Any, ServiceResponse]:
        """Invoke the bound server of ``interface`` (round trip): the
        stub's request generator, for the caller to ``yield from``."""
        return self.stub_for(interface).request(req)

    # -- serving ----------------------------------------------------------------
    def serve(self, req: ServiceRequest) -> Generator[Any, Any, ServiceResponse]:
        """Charge CPU, then dispatch the operation.

        Component faults are contained: an exception escaping a handler
        becomes a failure response to the caller instead of tearing down
        the whole request chain (the wrapper's "special environment"
        isolates components from each other).
        """
        if self.failed or not self.node.up:
            raise NodeDownError(f"{self._label}: host {self.node_name} is down")
        overload = self.runtime.overload
        if overload is not None:
            # Admission control *before* the CPU charge: a shed request
            # costs the network round trip it already paid, nothing more
            # (queue-based load leveling — the accept queue, and with it
            # served latency, stays bounded under any offered load).
            retry_after = overload.admit(self.node)
            if retry_after is not None:
                return ServiceResponse.failure(
                    f"{self._label}: shed (accept queue full)",
                    retryable=True,
                    retry_after_ms=retry_after,
                )
        sim = self.runtime.sim
        start = sim.now
        req.trace.append(self._label)
        self.inflight += 1
        try:
            yield from self.node.execute(self._cpu_per_request)
            try:
                resp = yield from self.dispatch(req)
            except FaultError:
                raise  # infrastructure fault, not a component bug: propagate
            except Exception as exc:  # noqa: BLE001 - fault isolation boundary
                resp = ServiceResponse.failure(
                    f"{self._label}: {type(exc).__name__}: {exc}"
                )
        finally:
            self.inflight -= 1
        self.requests_served += 1
        if self.runtime.records_service_times:
            self.service_times.append(sim.now - start)
        return resp

    def dispatch(self, req: ServiceRequest) -> Generator[Any, Any, ServiceResponse]:
        """The generator that answers ``req``: its ``op_<name>`` method's,
        for :meth:`serve` to ``yield from``."""
        handler = self._ops.get(req.op)
        if handler is None:
            return _answer(
                ServiceResponse.failure(f"{self.unit.name} has no op {req.op!r}")
            )
        return handler(self, req)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.label}>"
