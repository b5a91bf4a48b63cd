"""AIDE: an adaptive distributed platform for resource-constrained devices.

A full reproduction of "Towards a Distributed Platform for
Resource-Constrained Devices" (Messer et al., ICDCS 2002).  The library
provides:

* a guest virtual machine (:mod:`repro.vm`) standing in for the paper's
  modified Chai JVM — class/object model, byte-accounted heap, mark-and
  -sweep collector, native/static placement rules, interception hooks;
* the AIDE modules (:mod:`repro.core`) — execution-graph monitoring,
  the modified MINCUT partitioning heuristic with pluggable policies,
  and the offloading engine;
* remote invocation support (:mod:`repro.rpc`) with per-VM reference
  namespaces and distributed GC;
* an analytic network substrate (:mod:`repro.net`; the paper's 11 Mbps
  WaveLAN is the default);
* the ad-hoc two-VM platform prototype (:mod:`repro.platform`);
* a trace-driven emulator (:mod:`repro.emulator`) for repeatable
  experimentation;
* the five evaluation workloads (:mod:`repro.apps`) and one experiment
  harness per table/figure (:mod:`repro.experiments`).

Quickstart::

    from repro import DistributedPlatform, JavaNote, OffloadPolicy

    platform = DistributedPlatform(offload_policy=OffloadPolicy.initial())
    report = platform.run(JavaNote())
    print(report.offload_count, report.elapsed)
"""

from .apps import Biomer, Dia, GuestApplication, JavaNote, Tracer, Voxel
from .config import (
    DeviceProfile,
    EnhancementFlags,
    GCConfig,
    JORNADA,
    PC_SURROGATE,
    VMConfig,
)
from .core import (
    BestEffortCpuPolicy,
    CombinedPartitionPolicy,
    CpuPartitionPolicy,
    EnergyPartitionPolicy,
    PowerProfile,
    EvaluationContext,
    ExecutionGraph,
    ExecutionMonitor,
    MemoryPartitionPolicy,
    MemoryTrigger,
    OffloadPolicy,
    PartitionDecision,
    Partitioner,
    TriggerConfig,
    policy_sweep,
)
from .emulator import (
    ColumnarTrace,
    EmulationResult,
    Emulator,
    EmulatorConfig,
    record_application,
)
from .errors import (
    AideError,
    ConfigurationError,
    GuestError,
    MigrationError,
    NoBeneficialPartitionError,
    OutOfMemoryError,
    PlatformError,
    SurrogateUnavailableError,
    TraceError,
)
from .net import LinkModel, WAVELAN_11MBPS
from .platform import (
    DistributedPlatform,
    PlatformReport,
    SurrogateDirectory,
    SurrogateOffer,
)
from .vm import ClassRegistry, LocalSession, VirtualMachine

__version__ = "1.0.0"

__all__ = [
    "AideError",
    "BestEffortCpuPolicy",
    "Biomer",
    "ClassRegistry",
    "ColumnarTrace",
    "CombinedPartitionPolicy",
    "ConfigurationError",
    "CpuPartitionPolicy",
    "DeviceProfile",
    "Dia",
    "DistributedPlatform",
    "EmulationResult",
    "Emulator",
    "EmulatorConfig",
    "EnergyPartitionPolicy",
    "EnhancementFlags",
    "EvaluationContext",
    "ExecutionGraph",
    "ExecutionMonitor",
    "GCConfig",
    "GuestApplication",
    "GuestError",
    "JORNADA",
    "JavaNote",
    "LinkModel",
    "LocalSession",
    "MemoryPartitionPolicy",
    "MemoryTrigger",
    "MigrationError",
    "NoBeneficialPartitionError",
    "OffloadPolicy",
    "OutOfMemoryError",
    "PC_SURROGATE",
    "PartitionDecision",
    "Partitioner",
    "PlatformError",
    "PlatformReport",
    "PowerProfile",
    "SurrogateDirectory",
    "SurrogateOffer",
    "SurrogateUnavailableError",
    "TraceError",
    "Tracer",
    "TriggerConfig",
    "VMConfig",
    "VirtualMachine",
    "Voxel",
    "WAVELAN_11MBPS",
    "policy_sweep",
    "record_application",
]
