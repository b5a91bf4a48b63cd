"""Execution hook interface.

The paper instruments the JVM at four points — method invocation, data
field access, object creation, and object deletion — plus the garbage
collector's free-memory reports.  :class:`ExecutionListener` is the
Python face of those hooks: the execution monitor, the trace recorder,
and tests all subscribe through it.

Hook records are created for *every* guest interaction, so they are
``NamedTuple`` records built positionally: cheaper than a ``__slots__``
class with a keyword ``__init__``, with no per-instance ``__dict__``,
and immutable, so a listener may keep a record as it is.

:class:`HookFanout` is what the execution context calls.  A hook with a
single listener is bound straight to that listener's method, so in the
usual platform run (the execution monitor alone on the interaction
hooks) a guest interaction costs one call into the monitor.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from .gc import GCReport
from .objectmodel import JObject


class InvokeRecord(NamedTuple):
    """One completed method invocation."""

    caller_class: str
    caller_oid: Optional[int]
    callee_class: str
    callee_oid: Optional[int]
    method: str
    kind: str
    native_stateless: bool
    arg_bytes: int
    ret_bytes: int
    cpu_seconds: float
    caller_site: str
    exec_site: str
    remote: bool

    @property
    def is_native(self) -> bool:
        return self.kind == "native"


class AccessRecord(NamedTuple):
    """One data field access."""

    accessor_class: str
    accessor_oid: Optional[int]
    owner_class: str
    owner_oid: Optional[int]
    field: str
    value_bytes: int
    is_write: bool
    is_static: bool
    accessor_site: str
    exec_site: str
    remote: bool
    #: True when a remote read was served from the accessor site's
    #: remote-read cache: logically remote, zero bytes on the wire.
    cached: bool = False


#: Build a record from one tuple of *all* its fields, in order (an
#: access record's ``cached`` included), as ``Record._make`` does but
#: without the Python-level ``__new__`` frame that ``NamedTuple``
#: generates: ``new_record(AccessRecord, fields)``.  The execution
#: context builds one record per guest interaction this way (called
#: directly, it is cheaper than a ``partial`` bound to the type).
new_record = tuple.__new__


class ExecutionListener:
    """Base class with no-op hook methods; subclass and override."""

    def on_alloc(self, obj: JObject, site: str, creator: str) -> None:
        """An object or array was created on ``site`` by code of class
        ``creator``: the class of the context's top frame, or
        ``<main>`` outside any frame."""

    def on_free(self, obj: JObject) -> None:
        """An object was reclaimed by the collector."""

    def on_invoke(self, record: InvokeRecord) -> None:
        """A method invocation completed."""

    def on_access(self, record: AccessRecord) -> None:
        """A field read or write completed."""

    def on_cpu(self, class_name: str, site: str, seconds: float) -> None:
        """Reference CPU seconds were charged to ``class_name``.

        This is how per-class execution time reaches the execution graph
        (paper Figure 9): time is attributed directly to the class whose
        method is on top of the stack, which equals gross time minus
        nested-call time by construction.
        """

    def on_gc_report(self, report: GCReport, site: str) -> None:
        """The collector on ``site`` finished a cycle."""


#: The hook names :class:`HookFanout` broadcasts.
HOOKS = ("on_alloc", "on_free", "on_invoke", "on_access", "on_cpu",
         "on_gc_report")


class HookFanout(ExecutionListener):
    """Delivers each hook to an ordered list of listeners.

    Each hook keeps its own tuple of bound methods, holding only the
    listeners that override it, in the order they were added.  A hook
    with exactly one such listener *is* that listener's bound method (an
    instance attribute shadowing the broadcast below), so the event
    reaches it with no frame in between; a hook no listener implements
    is the base class's no-op; with two or more, the class method
    broadcasts in add order.  ``add`` and ``remove`` rebind every hook,
    so they take effect on the next event: callers must look a hook up
    on the fanout for each event rather than keep the callable.
    """

    def __init__(self) -> None:
        self.listeners: List[ExecutionListener] = []
        self._rebuild()

    def add(self, listener: ExecutionListener) -> None:
        self.listeners.append(listener)
        self._rebuild()

    def remove(self, listener: ExecutionListener) -> None:
        self.listeners.remove(listener)
        self._rebuild()

    def _rebuild(self) -> None:
        bound = vars(self)
        for name in HOOKS:
            base = getattr(ExecutionListener, name)
            methods = (getattr(listener, name) for listener in self.listeners)
            hooks = tuple(
                method for method in methods
                if getattr(method, "__func__", None) is not base
            )
            bound["_" + name] = hooks
            if len(hooks) == 1:
                bound[name] = hooks[0]
            elif hooks:
                bound.pop(name, None)
            else:
                bound[name] = base.__get__(self)

    def on_alloc(self, obj: JObject, site: str, creator: str) -> None:
        for hook in self._on_alloc:
            hook(obj, site, creator)

    def on_free(self, obj: JObject) -> None:
        for hook in self._on_free:
            hook(obj)

    def on_invoke(self, record: InvokeRecord) -> None:
        for hook in self._on_invoke:
            hook(record)

    def on_access(self, record: AccessRecord) -> None:
        for hook in self._on_access:
            hook(record)

    def on_cpu(self, class_name: str, site: str, seconds: float) -> None:
        for hook in self._on_cpu:
            hook(class_name, site, seconds)

    def on_gc_report(self, report: GCReport, site: str) -> None:
        for hook in self._on_gc_report:
            hook(report, site)
