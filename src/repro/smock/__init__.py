"""The Smock run-time system (paper §3.2): generic proxy/server, node
wrappers, deployment execution, and the runtime facade."""

from .bundle import ServiceBundle
from .component import RuntimeComponent, ServerStub
from .deployment import Deployer, DeploymentError, DeploymentRecord
from .leases import Lease, LeaseConfig
from .lookup import LookupError, LookupService, ServiceRegistration
from .messages import RequestError, ServiceRequest, ServiceResponse
from .overload import (
    CircuitBreaker,
    OverloadManager,
    OverloadStats,
    TokenBucket,
)
from .proxy import BindRecord, GenericProxy, RetryPolicy, ServiceProxy
from .runtime import SmockRuntime
from .server import AccessRecord, GenericServer
from .transport import RuntimeTransport
from .wrapper import NodeWrapper

__all__ = [
    "SmockRuntime",
    "ServiceBundle",
    "RuntimeComponent",
    "ServerStub",
    "ServiceRequest",
    "ServiceResponse",
    "RequestError",
    "LookupService",
    "LookupError",
    "ServiceRegistration",
    "Lease",
    "LeaseConfig",
    "GenericProxy",
    "ServiceProxy",
    "BindRecord",
    "RetryPolicy",
    "GenericServer",
    "AccessRecord",
    "Deployer",
    "DeploymentRecord",
    "DeploymentError",
    "NodeWrapper",
    "RuntimeTransport",
    "OverloadManager",
    "OverloadStats",
    "TokenBucket",
    "CircuitBreaker",
]
