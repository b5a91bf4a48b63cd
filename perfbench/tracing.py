"""Outside-in per-layer tracing of the program's public entry points.

The tracer never edits the program: :meth:`Tracer.install` replaces
each listed method on its class (or function in its module) with a
timing wrapper and :meth:`Tracer.uninstall` puts the originals back.
Wrappers are installed before the workload builds its replayers and
platforms, so every bound-method lookup the program hoists into a local
picks up the wrapper.

Every wrapped call charges its *self time* (its duration minus the
durations of wrapped calls nested inside it) to its layer, so the layer
self times of a pass, plus the ``other`` pseudo-layer for host time
outside every entry point, add up to the pass time.  Entry
points marked ``spans`` also keep one span per call (name, start, end,
parent span and item id) for the Chrome trace; the rest are hot (up to
a million calls a pass) and are aggregated into counts and self time
only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: Pseudo-layer for host time inside an item but outside every wrapped
#: entry point: benchmark glue, result fingerprinting, and program code
#: no layer claims (such as platform construction).
OTHER = "other"


@dataclass(frozen=True)
class EntryPoints:
    """Methods of one class (or functions of one module) in one layer.

    ``names`` of ``None`` means every public plain method, static
    method and class method the class defines itself (``Class.*``).
    """

    layer: str
    module: str
    owner: Optional[str]
    names: Optional[Tuple[str, ...]]
    spans: bool = False


#: The layers, outermost first, with the entry points charged to each.
LAYERS: Tuple[EntryPoints, ...] = (
    EntryPoints("emulator.replay", "repro.emulator.replay", "TraceReplayer",
                ("run",), spans=True),
    EntryPoints("core.graph", "repro.core.graph", "ExecutionGraph",
                ("record_interaction", "add_cpu", "add_memory",
                 "ensure_node", "note_object_created", "note_object_freed")),
    EntryPoints("core.partitioner", "repro.core.partitioner", "Partitioner",
                ("partition",), spans=True),
    EntryPoints("core.partitioner", "repro.core.partitioner",
                "IncrementalPartitioner", ("partition",), spans=True),
    EntryPoints("core.flatgraph", "repro.core.flatgraph", "FlatGraph",
                ("try_compile", "sync", "generate_chain", "repair_chain"),
                spans=True),
    EntryPoints("core.policy", "repro.core.policy", "PartitionPolicy",
                ("evaluate_chain",), spans=True),
    EntryPoints("rpc.batch", "repro.rpc.batch", "RpcCoalescer", None),
    EntryPoints("rpc.cache", "repro.rpc.cache", "RemoteReadCache", None),
    EntryPoints("rpc.retry", "repro.rpc.retry", "ReliableDelivery",
                ("attempt", "exchange")),
    EntryPoints("net.link", "repro.net.link", "LinkModel", None),
    EntryPoints("net.mobility", "repro.net.mobility", "LinkProfile",
                ("link_at",)),
    EntryPoints("net.mobility", "repro.core.policy", "BandwidthTrendTrigger",
                ("observe",)),
    EntryPoints("core.monitor", "repro.core.monitor", "ExecutionMonitor",
                ("on_alloc", "on_free", "on_invoke", "on_access", "on_cpu",
                 "on_gc_report")),
    EntryPoints("rpc.channel", "repro.rpc.channel", "RpcChannel", None),
    EntryPoints("rpc.marshal", "repro.rpc.marshal", "WireCodec",
                ("encode", "decode")),
    # The guest VM sizes every cross-site argument, result and message
    # with these; patched where the VM looks them up.
    EntryPoints("rpc.marshal", "repro.vm.context", None,
                ("args_size", "deep_size", "message_size")),
    EntryPoints("platform.migration", "repro.platform.migration", "Migrator",
                None, spans=True),
    EntryPoints("vm.gc", "repro.vm.gc", "MarkSweepCollector", ("collect",),
                spans=True),
    EntryPoints("analysis", "repro.analysis", None, ("analyze_app",),
                spans=True),
    EntryPoints("platform.run", "repro.platform.platform",
                "DistributedPlatform", ("run",), spans=True),
)

#: Layer names in table order, ``other`` last.
LAYER_NAMES: Tuple[str, ...] = tuple(
    dict.fromkeys(e.layer for e in LAYERS)
) + (OTHER,)


def _owners(entry: EntryPoints) -> List[object]:
    """The module, or the class and every subclass imported so far.

    Subclasses matter where they override an entry point, as every
    concrete policy overrides ``evaluate_chain``.
    """
    module = importlib.import_module(entry.module)
    if entry.owner is None:
        return [module]
    found, todo = [], [getattr(module, entry.owner)]
    while todo:
        cls = todo.pop()
        if cls not in found:
            found.append(cls)
            todo.extend(cls.__subclasses__())
    return found


def _method_names(owner: object, entry: EntryPoints) -> List[str]:
    if entry.names is not None:
        return [n for n in entry.names if n in vars(owner)]
    return sorted(
        name for name, value in vars(owner).items()
        if not name.startswith("_")
        and (inspect.isfunction(value)
             or isinstance(value, (staticmethod, classmethod)))
    )


class Tracer:
    """Times wrapped entry points; keeps per-layer totals and spans."""

    def __init__(self) -> None:
        self.layer_index: Dict[str, int] = {
            name: i for i, name in enumerate(LAYER_NAMES)
        }
        self.self_ns: List[int] = [0] * len(LAYER_NAMES)
        #: Calls per entry point, keyed ``Owner.method``.
        self.entry_names: List[str] = []
        self.entry_layer: List[int] = []
        self.entry_calls: List[int] = []
        self.spanned: List[bool] = []
        #: (name, layer index, start ns, end ns, parent span, item id)
        self.spans: List[Optional[tuple]] = []
        self.items: List[str] = []
        self._item = -1
        # One child-time accumulator per open wrapped call, plus a root.
        self._child: List[int] = [0]
        self._open: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        for entry in LAYERS:
            for owner in _owners(entry):
                for name in _method_names(owner, entry):
                    self._patch(owner, name, entry)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner: object, name: str, entry: EntryPoints) -> None:
        original = vars(owner)[name]
        label = f"{owner.__name__.rpartition('.')[2]}.{name}"
        if isinstance(original, staticmethod):
            patched = staticmethod(self._wrap(original.__func__, label, entry))
        elif isinstance(original, classmethod):
            patched = classmethod(self._wrap(original.__func__, label, entry))
        else:
            patched = self._wrap(original, label, entry)
        self._patches.append((owner, name, original))
        setattr(owner, name, patched)

    def _new_entry(self, label: str, layer: str, spanned: bool) -> int:
        self.entry_names.append(label)
        self.entry_layer.append(self.layer_index[layer])
        self.entry_calls.append(0)
        self.spanned.append(spanned)
        return len(self.entry_names) - 1

    def _wrap(self, fn: Callable, label: str, entry: EntryPoints) -> Callable:
        eid = self._new_entry(label, entry.layer, entry.spans)
        layer = self.layer_index[entry.layer]
        return self._timed(fn, eid, layer, label if entry.spans else None)

    def _timed(self, fn: Callable, eid: int, layer: int,
               span_name: Optional[str]) -> Callable:
        clock = time.perf_counter_ns
        child = self._child
        self_ns = self.self_ns
        calls = self.entry_calls

        if span_name is None:
            def wrapper(*args, **kwargs):
                child.append(0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = clock() - start
                    self_ns[layer] += duration - child.pop()
                    calls[eid] += 1
                    child[-1] += duration
        else:
            spans = self.spans
            open_spans = self._open
            tracer = self

            def wrapper(*args, **kwargs):
                sid = len(spans)
                spans.append(None)
                parent = open_spans[-1] if open_spans else -1
                open_spans.append(sid)
                child.append(0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    duration = end - start
                    self_ns[layer] += duration - child.pop()
                    calls[eid] += 1
                    child[-1] += duration
                    open_spans.pop()
                    spans[sid] = (span_name, layer, start, end, parent,
                                  tracer._item)

        return functools.update_wrapper(wrapper, fn)

    # -- items --------------------------------------------------------------

    def run_item(self, name: str, fn: Callable):
        """Run one benchmark item as a root span charged to ``other``."""
        self.items.append(name)
        self._item = len(self.items) - 1
        eid = self._new_entry(f"item:{name}", OTHER, True)
        try:
            return self._timed(fn, eid, self.layer_index[OTHER],
                               f"item:{name}")()
        finally:
            self._item = -1

    # -- reading ------------------------------------------------------------

    def calls_by(self, label: str) -> int:
        return sum(c for n, c in zip(self.entry_names, self.entry_calls)
                   if n == label)

    def layer_calls(self) -> Dict[str, int]:
        """Calls per layer; ``other`` counts the items run."""
        totals = {name: 0 for name in LAYER_NAMES}
        for eid, calls in enumerate(self.entry_calls):
            totals[LAYER_NAMES[self.entry_layer[eid]]] += calls
        return totals

    def layer_self_s(self) -> Dict[str, float]:
        return {name: self.self_ns[i] / 1e9
                for i, name in enumerate(LAYER_NAMES)}

    def aggregated_entries(self) -> List[str]:
        """Entry points timed without individual spans (hot paths),
        grouped as ``Owner.{a,b}``."""
        methods: Dict[str, List[str]] = {}
        for name, spanned in zip(self.entry_names, self.spanned):
            if not spanned:
                owner, _, method = name.partition(".")
                methods.setdefault(owner, []).append(method)
        return [f"{owner}.{{{','.join(sorted(set(names)))}}}"
                for owner, names in sorted(methods.items())]

    def chrome_trace(self) -> dict:
        """The recorded spans as Chrome trace-event JSON (Perfetto)."""
        events = []
        base = min((s[2] for s in self.spans if s is not None), default=0)
        for sid, span in enumerate(self.spans):
            if span is None:
                continue
            name, layer, start, end, parent, item = span
            events.append({
                "name": name,
                "cat": LAYER_NAMES[layer],
                "ph": "X",
                "ts": (start - base) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {
                    "id": sid,
                    "parent": parent,
                    "item": self.items[item] if item >= 0 else None,
                },
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "aggregated_entry_points": self.aggregated_entries(),
            },
        }

    def write_chrome_trace(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)
