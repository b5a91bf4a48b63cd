"""Trace-driven emulator: record, replay, and compare configurations."""

from .emulator import Emulator, OverheadStudy, UNCONSTRAINED_HEAP
from .events import (
    AccessEvent,
    AllocEvent,
    FreeEvent,
    InvokeEvent,
    TraceEvent,
    WorkEvent,
)
from ..net.faults import FaultReport, FaultSchedule, FaultSpec
from ..net.mobility import LinkProfile, MobilityConfig, MobilityReport
from ..rpc.retry import RetryPolicy
from .columnar import ColumnarTrace, read_ctrace, write_ctrace
from .fleet import (
    ClientDemand,
    ClientOutcome,
    FleetConfig,
    FleetEmulator,
    FleetResult,
    SurrogateStats,
)
from .parallel import (
    AggregateReplayResult,
    ClientReplay,
    ReplayShard,
    ShardedReplayer,
    replicate,
)
from .recorder import TraceRecorder, collect_class_traits, record_application
from .replay import EmulationResult, EmulatorConfig, TraceReplayer
from .timemodel import migration_cost, migration_payload

__all__ = [
    "AccessEvent",
    "AggregateReplayResult",
    "AllocEvent",
    "ClientDemand",
    "ClientOutcome",
    "ClientReplay",
    "ColumnarTrace",
    "EmulationResult",
    "Emulator",
    "EmulatorConfig",
    "FaultReport",
    "FaultSchedule",
    "FaultSpec",
    "FleetConfig",
    "FleetEmulator",
    "FleetResult",
    "FreeEvent",
    "InvokeEvent",
    "LinkProfile",
    "MobilityConfig",
    "MobilityReport",
    "OverheadStudy",
    "ReplayShard",
    "RetryPolicy",
    "ShardedReplayer",
    "SurrogateStats",
    "TraceEvent",
    "TraceRecorder",
    "TraceReplayer",
    "UNCONSTRAINED_HEAP",
    "WorkEvent",
    "collect_class_traits",
    "migration_cost",
    "migration_payload",
    "read_ctrace",
    "record_application",
    "replicate",
    "write_ctrace",
]
