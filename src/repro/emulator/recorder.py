"""Trace recording.

The paper extracts traces "from the prototype while running the
application to completion on a single PC".  :func:`record_application`
does the same: it runs a guest application on a single large-heap VM
with monitoring on and packs every hook event straight into the
columns of a :class:`~repro.emulator.columnar.ColumnarTrace`.
"""

from __future__ import annotations

from typing import Optional

from ..config import DeviceProfile, GCConfig, VMConfig
from ..units import MB
from ..vm.classloader import ClassRegistry
from ..vm.gc import GCReport
from ..vm.hooks import AccessRecord, ExecutionListener, InvokeRecord
from ..vm.objectmodel import JObject
from ..vm.session import LocalSession
from .columnar import ColumnarTrace
from .events import (
    AccessEvent,
    AllocEvent,
    FreeEvent,
    InvokeEvent,
    WorkEvent,
)

#: Recording happens on a developer PC with a heap big enough that the
#: application never hits its memory constraint.
RECORDING_DEVICE = DeviceProfile("recording-pc", cpu_speed=1.0,
                                 heap_capacity=64 * MB)


class TraceRecorder(ExecutionListener):
    """Hook listener that packs every event onto a trace's columns.

    An allocation names its *creator*, the class the context passes to
    the alloc hook (the class of the frame performing the creation):
    new objects are placed on the VM performing the creation, so the
    replayer needs this attribution.  The creator's oid is not recorded.
    """

    def __init__(self, trace: Optional[ColumnarTrace] = None) -> None:
        self.trace = trace if trace is not None else ColumnarTrace()
        pack = self.trace.packers()
        self._alloc, self._free, self._invoke = (
            pack[AllocEvent], pack[FreeEvent], pack[InvokeEvent])
        self._access, self._work = pack[AccessEvent], pack[WorkEvent]

    def on_alloc(self, obj: JObject, site: str, creator: str) -> None:
        self._alloc(obj.oid, obj.class_name, obj.size_bytes, creator, None)

    def on_invoke(self, record: InvokeRecord) -> None:
        self._invoke(record.caller_class, record.caller_oid,
                     record.callee_class, record.callee_oid, record.method,
                     record.kind, record.native_stateless,
                     record.arg_bytes, record.ret_bytes)

    def on_access(self, record: AccessRecord) -> None:
        self._access(record.accessor_class, record.accessor_oid,
                     record.owner_class, record.owner_oid,
                     record.value_bytes, record.is_write, record.is_static)

    def on_free(self, obj: JObject) -> None:
        self._free(obj.oid)

    def on_cpu(self, class_name: str, site: str, seconds: float) -> None:
        self._work(class_name, None, seconds)

    def on_gc_report(self, report: GCReport, site: str) -> None:
        # The recording VM's GC schedule is irrelevant: the replayer
        # synthesises its own collection cycles for the emulated heap.
        pass


def collect_class_traits(registry: ClassRegistry) -> dict:
    """Placement-relevant traits for every registered class."""
    traits = {}
    for cls in registry:
        traits[cls.name] = {
            "native": cls.has_native_methods,
            "stateful_native": cls.has_stateful_natives,
        }
    return traits


def record_application(
    app,
    device: DeviceProfile = RECORDING_DEVICE,
    gc: Optional[GCConfig] = None,
    notes: str = "",
) -> ColumnarTrace:
    """Run ``app`` to completion on one big VM, returning its trace."""
    config = VMConfig(
        device=device,
        gc=gc if gc is not None else GCConfig(),
        monitoring_enabled=True,
        monitoring_event_cost=0.0,
    )
    session = LocalSession(config)
    trace = ColumnarTrace(app_name=app.name, notes=notes)
    recorder = TraceRecorder(trace)
    session.add_listener(recorder)
    app.install(session.registry)
    app.main(session.ctx)
    # A final collection flushes every unreachable object into the
    # trace's free stream so the replayer sees the full garbage set.
    session.vm.collect_garbage("record-flush")
    trace.class_traits = collect_class_traits(session.registry)
    return trace
