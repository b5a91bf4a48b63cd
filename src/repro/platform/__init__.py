"""Ad-hoc distributed platform: nodes, discovery, migration, prototype."""

from .discovery import SurrogateDirectory, SurrogateOffer
from .migration import Migrator, PER_OBJECT_OVERHEAD_BYTES
from .node import Node, make_client_node, make_surrogate_node
from .platform import (
    DistributedPlatform,
    DistributedRuntime,
    INT_ARRAY_CLASS,
    PlatformReport,
    SurrogateSpec,
)

__all__ = [
    "DistributedPlatform",
    "SurrogateSpec",
    "DistributedRuntime",
    "INT_ARRAY_CLASS",
    "Migrator",
    "Node",
    "PER_OBJECT_OVERHEAD_BYTES",
    "PlatformReport",
    "SurrogateDirectory",
    "SurrogateOffer",
    "make_client_node",
    "make_surrogate_node",
]
