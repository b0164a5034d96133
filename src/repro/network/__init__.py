"""Network substrate: topology model, BRITE-style generation,
credential translation, and Remos-style monitoring."""

from .brite import BriteConfig, generate_waxman
from .credentials import CredentialTranslator, Environment, FunctionTranslator
from .monitor import ChangeEvent, NetworkMonitor
from .topology import LinkInfo, Network, NetworkError, NodeInfo, PathInfo

__all__ = [
    "Network",
    "NetworkError",
    "NodeInfo",
    "LinkInfo",
    "PathInfo",
    "BriteConfig",
    "generate_waxman",
    "Environment",
    "CredentialTranslator",
    "FunctionTranslator",
    "NetworkMonitor",
    "ChangeEvent",
]
