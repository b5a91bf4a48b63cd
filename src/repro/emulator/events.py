"""Trace event records.

The emulator replays execution and resource traces extracted from a
run of the prototype (paper section 4).  A trace is held as columns
(:class:`~repro.emulator.columnar.ColumnarTrace`); these records are
the one-event view of it: what ``ColumnarTrace.append`` accepts and
``ColumnarTrace.iter_events`` yields.  Each is a named tuple whose
fields are in the order of the event's JSONL row.

Event kinds:

* ``AllocEvent`` — object creation, with the creating class (new
  objects are placed on the VM performing the creation);
* ``FreeEvent`` — the object became garbage (observed at the recording
  VM's collection; the replayer schedules reclamation under its own
  emulated collector);
* ``InvokeEvent`` — one completed method invocation, with enough
  routing information (method kind, stateless annotation, receiver
  identity) for the replayer to re-decide placement under any policy;
* ``AccessEvent`` — one data access (field or bulk array);
* ``WorkEvent`` — CPU self-time charged to a class (replayed at the
  executing device's speed).  Declared per-invocation costs are folded
  into WorkEvents at record time, so replay charges CPU exactly once.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union


class AllocEvent(NamedTuple):
    oid: int
    class_name: str
    size: int
    creator_class: str
    creator_oid: Optional[int]
    kind = "alloc"


class FreeEvent(NamedTuple):
    oid: int
    kind = "free"


class InvokeEvent(NamedTuple):
    caller_class: str
    caller_oid: Optional[int]
    callee_class: str
    callee_oid: Optional[int]
    method: str
    mkind: str
    stateless: bool
    arg_bytes: int
    ret_bytes: int
    kind = "invoke"

    @property
    def is_native(self) -> bool:
        return self.mkind == "native"

    @property
    def is_static(self) -> bool:
        return self.mkind == "static"


class AccessEvent(NamedTuple):
    accessor_class: str
    accessor_oid: Optional[int]
    owner_class: str
    owner_oid: Optional[int]
    nbytes: int
    is_write: bool
    is_static: bool
    kind = "access"


class WorkEvent(NamedTuple):
    class_name: str
    oid: Optional[int]
    seconds: float
    kind = "work"


TraceEvent = Union[AllocEvent, FreeEvent, InvokeEvent, AccessEvent, WorkEvent]
