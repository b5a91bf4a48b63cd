"""Shared experiment infrastructure.

Every experiment harness in this package reproduces one table or figure
from the paper's evaluation (see DESIGN.md section 4).  The harnesses
share the paper's device/link constants, a per-process trace cache (the
emulator studies replay each application's trace many times), and the
canonical workload configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..apps import Biomer, Dia, JavaNote, Tracer, Voxel
from ..config import DeviceProfile, GCConfig
from ..core.policy import OffloadPolicy
from ..emulator import ColumnarTrace, EmulatorConfig, record_application
from ..net.link import LinkModel
from ..net.wavelan import WAVELAN_11MBPS
from ..units import MB

#: The paper's client: HP Jornada-class handheld with a 6 MB Java heap.
CLIENT_6MB = DeviceProfile("jornada-547", cpu_speed=1.0, heap_capacity=6 * MB)

#: The paper's surrogate PC at the measured 3.5x speed ratio.
SURROGATE_35X = DeviceProfile("pc-surrogate", cpu_speed=3.5,
                              heap_capacity=64 * MB)

#: For the memory experiments the paper uses the same processor speed on
#: both sides (section 5.1, "the same processor speed was used for both
#: the client and the surrogate").
SURROGATE_SAME_SPEED = DeviceProfile("pc-surrogate", cpu_speed=1.0,
                                     heap_capacity=64 * MB)

#: Chai-like collector triggers.
CHAI_GC = GCConfig()


def memory_emulator_config(
    policy: Optional[OffloadPolicy] = None,
    link: LinkModel = WAVELAN_11MBPS,
) -> EmulatorConfig:
    """Section 5.1 configuration: 6 MB client, same-speed surrogate."""
    return EmulatorConfig(
        client=CLIENT_6MB,
        surrogate=SURROGATE_SAME_SPEED,
        link=link,
        gc=CHAI_GC,
        policy=policy if policy is not None else OffloadPolicy.initial(),
    )


def cpu_emulator_config(
    offload_at_event: int,
    link: LinkModel = WAVELAN_11MBPS,
) -> EmulatorConfig:
    """Section 5.2 configuration: 3.5x surrogate, explicit re-evaluation."""
    return EmulatorConfig(
        client=DeviceProfile("jornada-547", cpu_speed=1.0,
                             heap_capacity=64 * MB),
        surrogate=SURROGATE_35X,
        link=link,
        gc=CHAI_GC,
        offload_at_event=offload_at_event,
    )


# -- canonical workload configurations -------------------------------------------

def javanote_memory() -> JavaNote:
    """The section 5.1 JavaNote scenario: 600 KB file, editing session."""
    return JavaNote()


def javanote_monitoring() -> JavaNote:
    """The monitoring-overhead scenario: open + light editing/scrolling.

    Fine-grained event fidelity reproduces Table 2's ~1.2M interaction
    events in a ~30 s (reference CPU) session.
    """
    return JavaNote(edits=100, scrolls=140, fidelity="fine")


def dia_memory() -> Dia:
    return Dia()


def biomer_memory() -> Biomer:
    return Biomer()


def biomer_cpu() -> Biomer:
    return Biomer.cpu_scenario()


def voxel_cpu() -> Voxel:
    return Voxel()


def tracer_cpu() -> Tracer:
    return Tracer()


#: Fraction of the trace after which the section 5.2 harness asks the
#: platform to re-evaluate placement.  Voxel re-evaluates before its
#: preview opens; Biomer after its interactive inspection phase.
CPU_OFFLOAD_EVENT_FRACTION: Dict[str, float] = {
    "voxel": 0.10,
    "tracer": 0.25,
    "biomer": 0.75,
}


# -- trace cache -----------------------------------------------------------------

_TRACE_CACHE: Dict[Tuple[str, str], ColumnarTrace] = {}


def cached_trace(name: str, factory: Callable[[], object],
                 variant: str = "default") -> ColumnarTrace:
    """Record (once per process) and reuse an application trace."""
    key = (name, variant)
    trace = _TRACE_CACHE.get(key)
    if trace is None:
        trace = record_application(factory())
        _TRACE_CACHE[key] = trace
    return trace


def clear_trace_cache() -> None:
    _TRACE_CACHE.clear()


@dataclass(frozen=True)
class PaperReference:
    """A value the paper reports, for side-by-side comparison output."""

    label: str
    paper_value: str
    measured: str

    def row(self) -> str:
        return f"{self.label:<44} {self.paper_value:>16} {self.measured:>16}"
