"""The AIDE modules: monitoring, partitioning, and offloading control."""

from .energy import (
    EnergyPartitionPolicy,
    JORNADA_POWER,
    PowerProfile,
    local_energy,
    predict_client_energy,
    realized_client_energy,
)
from .engine import MigrationOutcome, OffloadEvent, OffloadingEngine
from .hints import (
    PlacementHints,
    contract_graph,
    expand_nodes,
    interaction_profile,
)
from .graph import EdgeStats, ExecutionGraph, NodeStats, node_class, object_node_id
from .flatgraph import CandidatePartition
from .monitor import ExecutionMonitor, MonitorCounters, RemoteCounters, ResourceMonitor
from .partitioner import PartitionDecision, Partitioner
from .policy import (
    BandwidthTrendTrigger,
    BestEffortCpuPolicy,
    CombinedPartitionPolicy,
    CpuPartitionPolicy,
    EvaluationContext,
    MemoryPartitionPolicy,
    MemoryTrigger,
    OffloadPolicy,
    PartitionPolicy,
    PolicyDecision,
    TriggerConfig,
    policy_sweep,
    predict_completion_time,
)

__all__ = [
    "BandwidthTrendTrigger",
    "BestEffortCpuPolicy",
    "CandidatePartition",
    "CombinedPartitionPolicy",
    "CpuPartitionPolicy",
    "EdgeStats",
    "EnergyPartitionPolicy",
    "EvaluationContext",
    "ExecutionGraph",
    "ExecutionMonitor",
    "MemoryPartitionPolicy",
    "MemoryTrigger",
    "MigrationOutcome",
    "MonitorCounters",
    "NodeStats",
    "OffloadEvent",
    "OffloadPolicy",
    "OffloadingEngine",
    "PartitionDecision",
    "PartitionPolicy",
    "Partitioner",
    "PlacementHints",
    "PolicyDecision",
    "PowerProfile",
    "JORNADA_POWER",
    "RemoteCounters",
    "ResourceMonitor",
    "TriggerConfig",
    "contract_graph",
    "expand_nodes",
    "local_energy",
    "predict_client_energy",
    "realized_client_energy",
    "interaction_profile",
    "node_class",
    "object_node_id",
    "policy_sweep",
    "predict_completion_time",
]
