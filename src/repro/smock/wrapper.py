"""Per-node wrappers for remote component installation (paper §3.2).

"Remote component deployment is simplified by the assumption that all
nodes have a special environment.  Once a component is downloaded on a
node, the node wrapper is responsible for initializing it and connecting
it to other components, according to the required interfaces
specifications."

The wrapper models the three installation phases the paper's Java
runtime performs: code download (the component bundle crosses the
network from the code base), class loading/verification (a fixed
per-component startup cost — Smock "benefits from [Java's] support for
dynamic class loading, verification, and installation"), and instance
initialization + linking.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Type, TYPE_CHECKING

from ..sim import SimNode
from ..spec import ComponentDef
from .component import RuntimeComponent, ServerStub

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runtime import SmockRuntime

__all__ = ["NodeWrapper", "STARTUP_MS"]

#: class-loading + verification + init cost per component instance, ms
STARTUP_MS = 400.0


class NodeWrapper:
    """The Smock agent running on one node."""

    def __init__(self, runtime: "SmockRuntime", node: SimNode) -> None:
        self.runtime = runtime
        self.node = node
        self.installs = 0
        self.bytes_downloaded = 0

    def install(
        self,
        unit: ComponentDef,
        component_cls: Type[RuntimeComponent],
        factor_values: Dict[str, Any],
        instance_id: str,
        code_from: Optional[str] = None,
    ) -> Generator[Any, Any, RuntimeComponent]:
        """Process generator: download, verify, initialize one component.

        ``code_from`` names the node holding the component code base
        (the generic server's host); ``None`` skips the download (code
        already cached locally, e.g. for pre-installed primaries).
        """
        if code_from is not None and code_from != self.node.name:
            size = unit.behaviors.code_size_bytes
            yield from self.runtime.transport.deliver(code_from, self.node.name, size)
            self.bytes_downloaded += size
        # Class loading, bytecode verification, constructor.
        yield from self.node.execute(STARTUP_MS * self.node.cpu_capacity / 1e3)
        instance = component_cls(
            runtime=self.runtime,
            unit=unit,
            node=self.node,
            factor_values=factor_values,
            instance_id=instance_id,
        )
        self.node.installed[instance_id] = instance
        self.installs += 1
        instance.on_install()
        return instance

    def connect(
        self, instance: RuntimeComponent, interface: str, server: RuntimeComponent
    ) -> ServerStub:
        """Bind one required interface of an installed instance."""
        stub = ServerStub(self.runtime, interface, self.node.name, server)
        instance.bind_server(interface, stub)
        return stub

    def uninstall(self, instance_id: str) -> None:
        self.node.installed.pop(instance_id, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NodeWrapper {self.node.name} installed={len(self.node.installed)}>"
