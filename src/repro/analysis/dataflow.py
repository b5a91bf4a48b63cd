"""Interprocedural traffic dataflow over the extracted facts.

The base predictor (:func:`repro.analysis.staticgraph.predict_graph`)
weights each site by its *local* loop depth only: a call executed once
per run and a call executed inside the entry point's hot loop look the
same once you are one call level down.  This module closes that gap
with three cooperating passes built on the per-method summaries of
:mod:`repro.analysis.summaries`:

* **Call-frequency fixpoint** — seeds the entry point (``<main>``) with
  frequency 1 and propagates ``freq(caller) × B**depth`` through every
  call site, splitting evenly across the resolver's candidate set.
  The result estimates how often each method runs per program run.
* **Constant-argument propagation** — merges the symbolic arguments of
  every call site into the callee's :class:`~repro.analysis.facts
  .ParamRef` slots (context-insensitively), so constants such as the
  element count of ``System.arraycopy`` and array-typed operands
  survive one call level down.
* **Escape analysis** — classifies fields, arrays, and statics as
  client-confined, surrogate-confined, or cross-partition from the
  sides (pinned vs offloadable) of their weighted accessors.

:func:`predict_traffic` combines the passes into a
:class:`TrafficPrediction`: a re-weighted copy of the static
:class:`~repro.core.graph.ExecutionGraph` whose node and edge sets are
unchanged (preserving the superset-of-runtime parity property) but
whose edge bytes now reflect predicted *traffic*, plus the raw
frequency, binding, and escape tables that power the AL4xx lint rules
and the weighted cold-start/fleet seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..core.graph import ExecutionGraph, edge_key
from ..vm.objectmodel import SLOT_SIZES
from .facts import (
    MAIN_CLASS,
    ArrayData,
    CallFact,
    ElemOf,
    FieldOf,
    NumConst,
    ParamRef,
    ProgramFacts,
    ReturnOf,
    UnionRef,
    Unknown,
    ValueRef,
    union_of,
)
from .staticgraph import (
    ACCESS_BYTES,
    ARG_BYTES,
    DEFAULT_WORK_SECONDS,
    INVOKE_BASE_BYTES,
    Resolver,
)
from .summaries import (
    MethodSummary,
    SummaryConfig,
    build_summaries,
    fact_weight,
)

__all__ = [
    "DataflowConfig", "StateTraffic", "EscapeReport", "TrafficPrediction",
    "predict_traffic", "substitute",
]

_UNKNOWN = Unknown()

MethodKey = Tuple[str, str]


@dataclass(frozen=True)
class DataflowConfig:
    """Knobs for the interprocedural passes."""

    #: Loop-depth weighting base B (a site under k loops runs B**k
    #: times per method invocation, for loops without a constant trip
    #: count).
    loop_base: float = 8.0
    #: Cap on one site's local weight.  Far above the legacy syntactic
    #: cap (4096) because constant trip counts are real: a 256x192
    #: pixel loop legitimately runs ~49k times per invocation.
    max_site_weight: float = 1e6
    #: Element count for unresolvable array accesses.
    default_array_count: int = 8
    #: Cap on any method's predicted call frequency (recursion guard).
    max_call_freq: float = 1e9
    #: Frequency-fixpoint iteration cap.
    max_rounds: int = 40
    #: Convergence tolerance (max relative frequency change per round).
    tolerance: float = 1e-6
    #: Argument-binding propagation passes (bounded: one pass moves
    #: constants one call level down).
    binding_rounds: int = 3
    #: Frequency floor applied when weighting traffic, so statically
    #: reachable-but-cold methods keep non-zero predicted edges (the
    #: weighted graph must stay a superset of any run's monitor graph).
    min_method_freq: float = 1.0 / 64.0

    def summary_config(self) -> SummaryConfig:
        return SummaryConfig(
            loop_base=self.loop_base,
            max_site_weight=self.max_site_weight,
            default_array_count=self.default_array_count,
        )


# -- symbolic substitution ----------------------------------------------------


def substitute(
    ref: Optional[ValueRef],
    binding: Dict[int, ValueRef],
    _depth: int = 0,
) -> Optional[ValueRef]:
    """Replace :class:`ParamRef` slots in ``ref`` with merged caller args."""
    if ref is None or _depth > 6:
        return ref
    if isinstance(ref, ParamRef):
        return binding.get(ref.index, _UNKNOWN)
    if isinstance(ref, FieldOf):
        return FieldOf(substitute(ref.owner, binding, _depth + 1), ref.field)
    if isinstance(ref, ElemOf):
        return ElemOf(substitute(ref.container, binding, _depth + 1))
    if isinstance(ref, ArrayData):
        return ArrayData(substitute(ref.container, binding, _depth + 1))
    if isinstance(ref, ReturnOf):
        return ReturnOf(
            substitute(ref.receiver, binding, _depth + 1), ref.method
        )
    if isinstance(ref, UnionRef):
        return union_of(
            *[substitute(part, binding, _depth + 1) for part in ref.parts]
        )
    return ref


class _Site:
    """Minimal stand-in for a SummarySite outside the summary tables."""

    __slots__ = ("fact", "local_weight")

    def __init__(self, fact, local_weight: float) -> None:
        self.fact = fact
        self.local_weight = local_weight


def _resolved_weight(site, binding: Dict[int, ValueRef],
                     config: DataflowConfig) -> float:
    """A site's local weight with symbolic trip bounds resolved.

    Most sites keep their summary weight; sites under a loop whose
    ``range`` bound is a method parameter (e.g. ``render(image, rows)``
    iterating ``range(rows)``) resolve the bound through the method's
    argument binding, recovering the real per-invocation repeat count.
    """
    fact = site.fact
    trips = getattr(fact, "trips", ())
    if not any(isinstance(trip, ValueRef) for trip in trips):
        return site.local_weight
    depth = getattr(fact, "depth", 0)
    weight = 1.0
    for level in range(depth):
        trip = trips[level] if level < len(trips) else None
        if isinstance(trip, ValueRef):
            options = _numeric_options(substitute(trip, binding))
            trip = max(1, int(max(options))) if options else None
        if isinstance(trip, (int, float)):
            weight *= float(trip)
        else:
            weight *= config.loop_base
        if weight >= config.max_site_weight:
            return config.max_site_weight
    return max(weight, 1.0)


def _has_param(ref: Optional[ValueRef], _depth: int = 0) -> bool:
    """Whether a reference mentions any :class:`ParamRef` slot."""
    if ref is None or _depth > 6:
        return False
    if isinstance(ref, ParamRef):
        return True
    if isinstance(ref, FieldOf):
        return _has_param(ref.owner, _depth + 1)
    if isinstance(ref, (ElemOf, ArrayData)):
        return _has_param(ref.container, _depth + 1)
    if isinstance(ref, ReturnOf):
        return _has_param(ref.receiver, _depth + 1)
    if isinstance(ref, UnionRef):
        return any(_has_param(part, _depth + 1) for part in ref.parts)
    return False


# -- escape analysis ----------------------------------------------------------


@dataclass
class StateTraffic:
    """Weighted accessor-side totals for one piece of guest state."""

    client_bytes: float = 0.0
    offload_bytes: float = 0.0
    reads: float = 0.0
    writes: float = 0.0
    readers: Set[str] = dataclass_field(default_factory=set)
    writers: Set[str] = dataclass_field(default_factory=set)

    def charge(self, accessor: str, client_side: bool, nbytes: float,
               rate: float, is_write: bool) -> None:
        if client_side:
            self.client_bytes += nbytes
        else:
            self.offload_bytes += nbytes
        if is_write:
            self.writes += rate
            self.writers.add(accessor)
        else:
            self.reads += rate
            self.readers.add(accessor)

    @property
    def total_bytes(self) -> float:
        return self.client_bytes + self.offload_bytes

    @property
    def classification(self) -> str:
        if self.total_bytes <= 0:
            return "idle"
        if self.offload_bytes <= 0:
            return "client-confined"
        if self.client_bytes <= 0:
            return "surrogate-confined"
        return "cross-partition"


@dataclass
class EscapeReport:
    """Client-confined vs cross-partition classification of state."""

    #: (owner class, field name) -> weighted accessor traffic.
    fields: Dict[Tuple[str, str], StateTraffic] = dataclass_field(
        default_factory=dict
    )
    #: array class name (``char[]`` …) -> weighted accessor traffic.
    arrays: Dict[str, StateTraffic] = dataclass_field(default_factory=dict)
    #: (declaring class, static field name) -> weighted accessor traffic.
    statics: Dict[Tuple[str, str], StateTraffic] = dataclass_field(
        default_factory=dict
    )


# -- the prediction -----------------------------------------------------------


@dataclass
class TrafficPrediction:
    """Interprocedural traffic estimate for one program."""

    config: DataflowConfig
    #: Predicted invocations per program run, per method.
    freq: Dict[MethodKey, float]
    #: Merged symbolic arguments per method parameter slot.
    bindings: Dict[MethodKey, Dict[int, ValueRef]]
    #: The re-weighted static graph (same nodes/edges as the base
    #: predicted graph; bytes now carry interprocedural weight).
    graph: ExecutionGraph
    pinned: FrozenSet[str]
    escape: EscapeReport
    #: Predicted bytes crossing the pinned/offloadable boundary.
    cross_traffic_bytes: float
    #: Predicted round trips per weighted edge.
    edge_rtts: Dict[Tuple[str, str], float]
    fixpoint_rounds: int = 0

    def method_freq(self, key: MethodKey) -> float:
        return max(self.freq.get(key, 0.0), self.config.min_method_freq)

    def site_rate(self, key: MethodKey, fact) -> float:
        """Predicted executions of one site per program run."""
        local = _resolved_weight(
            _Site(fact, fact_weight(fact, self.config.summary_config())),
            self.binding_for(key), self.config,
        )
        return self.method_freq(key) * local

    def binding_for(self, key: MethodKey) -> Dict[int, ValueRef]:
        return self.bindings.get(key, {})


def _numeric_options(ref: Optional[ValueRef]) -> List[float]:
    if isinstance(ref, NumConst):
        return [ref.value]
    if isinstance(ref, UnionRef):
        values: List[float] = []
        for part in ref.parts:
            if isinstance(part, NumConst):
                values.append(part.value)
        return values
    return []


def _array_slot_bytes(array_class: str) -> int:
    element = array_class[:-2] if array_class.endswith("[]") else "ref"
    return SLOT_SIZES.get(element, SLOT_SIZES["ref"])


# -- passes -------------------------------------------------------------------


def _propagate_bindings(
    program: ProgramFacts,
    resolver: Resolver,
    summaries: Dict[MethodKey, MethodSummary],
    config: DataflowConfig,
) -> Dict[MethodKey, Dict[int, ValueRef]]:
    """Merge call-site arguments into callee parameter slots."""
    bindings: Dict[MethodKey, Dict[int, ValueRef]] = {}
    for _ in range(max(1, config.binding_rounds)):
        changed = False
        for caller_key, summary in summaries.items():
            caller_binding = bindings.get(caller_key, {})
            for site in summary.calls:
                fact: CallFact = site.fact
                if not fact.args:
                    continue
                candidates = resolver.invoke_candidates(
                    substitute(fact.receiver, caller_binding), fact.method
                )
                for candidate in candidates:
                    callee_key = (candidate, fact.method)
                    if callee_key not in summaries:
                        continue
                    slots = bindings.setdefault(callee_key, {})
                    for index, arg in enumerate(fact.args):
                        value = substitute(arg, caller_binding)
                        merged = union_of(slots.get(index), value)
                        if merged != slots.get(index):
                            slots[index] = merged
                            changed = True
        if not changed:
            break
    return bindings


def _call_frequencies(
    program: ProgramFacts,
    resolver: Resolver,
    summaries: Dict[MethodKey, MethodSummary],
    bindings: Dict[MethodKey, Dict[int, ValueRef]],
    config: DataflowConfig,
) -> Tuple[Dict[MethodKey, float], int]:
    """Fixpoint: predicted invocations per program run, per method."""
    seed: Dict[MethodKey, float] = {}
    if (MAIN_CLASS, "main") in summaries:
        seed[(MAIN_CLASS, "main")] = 1.0
    else:
        # Registry-only analysis (no entry point): assume each method
        # is an entry called once, so relative loop weights still rank.
        seed = {key: 1.0 for key in summaries}

    freq = dict(seed)
    rounds = 0
    for rounds in range(1, max(1, config.max_rounds) + 1):
        incoming: Dict[MethodKey, float] = {}
        for caller_key, summary in summaries.items():
            caller_freq = freq.get(caller_key, 0.0)
            if caller_freq <= 0.0:
                continue
            caller_binding = bindings.get(caller_key, {})
            for site in summary.calls:
                fact: CallFact = site.fact
                candidates = resolver.invoke_candidates(
                    substitute(fact.receiver, caller_binding), fact.method
                )
                if not candidates:
                    continue
                local = _resolved_weight(site, caller_binding, config)
                share = caller_freq * local / len(candidates)
                for candidate in candidates:
                    callee_key = (candidate, fact.method)
                    if callee_key not in summaries:
                        continue
                    incoming[callee_key] = incoming.get(callee_key, 0.0) + share
        updated = dict(seed)
        for key, value in incoming.items():
            updated[key] = min(
                updated.get(key, 0.0) + value, config.max_call_freq
            )
        worst = 0.0
        for key in set(updated) | set(freq):
            old = freq.get(key, 0.0)
            new = updated.get(key, 0.0)
            denom = max(old, new, 1.0)
            worst = max(worst, abs(new - old) / denom)
        freq = updated
        if worst <= config.tolerance:
            break
    return freq, rounds


def _incoming_sites(
    resolver: Resolver,
    summaries: Dict[MethodKey, MethodSummary],
    bindings: Dict[MethodKey, Dict[int, ValueRef]],
    freq: Dict[MethodKey, float],
    config: DataflowConfig,
) -> Dict[MethodKey, List[Tuple[float, Dict[int, ValueRef]]]]:
    """Per-call-site ``(rate, argument binding)`` descriptors per callee.

    One level of context sensitivity for parameter-dependent facts: a
    ``char[]`` copy reached from the text editor must not inherit the
    ``int[]`` operands (and counts) that an image-processing caller
    merged into the same parameter slots.
    """
    incoming: Dict[MethodKey, List[Tuple[float, Dict[int, ValueRef]]]] = {}
    for caller_key, summary in summaries.items():
        caller_freq = max(freq.get(caller_key, 0.0), config.min_method_freq)
        caller_binding = bindings.get(caller_key, {})
        for site in summary.calls:
            fact: CallFact = site.fact
            candidates = resolver.invoke_candidates(
                substitute(fact.receiver, caller_binding), fact.method
            )
            if not candidates:
                continue
            local = _resolved_weight(site, caller_binding, config)
            rate = caller_freq * local / len(candidates)
            site_binding = {
                index: substitute(arg, caller_binding)
                for index, arg in enumerate(fact.args)
            }
            for candidate in candidates:
                callee_key = (candidate, fact.method)
                if callee_key not in summaries:
                    continue
                incoming.setdefault(callee_key, []).append(
                    (rate, site_binding)
                )
    return incoming


def predict_traffic(
    program: ProgramFacts,
    resolver: Optional[Resolver] = None,
    base_graph: Optional[ExecutionGraph] = None,
    pinned: Optional[FrozenSet[str]] = None,
    config: Optional[DataflowConfig] = None,
) -> TrafficPrediction:
    """Run the interprocedural passes and build the weighted graph."""
    from .staticgraph import predict_graph  # cycle-free at call time

    config = config or DataflowConfig()
    resolver = resolver or Resolver(program)
    if base_graph is None:
        base_graph = predict_graph(program, resolver)
    if pinned is None:
        pinned = frozenset(program.native_method_classes()) | {MAIN_CLASS}

    summaries = build_summaries(program, config.summary_config())
    bindings = _propagate_bindings(program, resolver, summaries, config)
    freq, rounds = _call_frequencies(
        program, resolver, summaries, bindings, config
    )
    incoming = _incoming_sites(resolver, summaries, bindings, freq, config)

    traffic: Dict[Tuple[str, str], float] = {}
    rtts: Dict[Tuple[str, str], float] = {}
    cpu: Dict[str, float] = {}
    escape = EscapeReport()

    def charge(accessor: str, owner: str, nbytes: float, rate: float) -> None:
        if accessor == owner:
            return
        key = edge_key(accessor, owner)
        traffic[key] = traffic.get(key, 0.0) + nbytes
        rtts[key] = rtts.get(key, 0.0) + rate

    for method_key, summary in summaries.items():
        accessor = summary.class_name
        client_side = accessor in pinned
        ef = max(freq.get(method_key, 0.0), config.min_method_freq)
        binding = bindings.get(method_key, {})

        for site in summary.calls:
            fact: CallFact = site.fact
            rate = ef * _resolved_weight(site, binding, config)
            nbytes = INVOKE_BASE_BYTES + ARG_BYTES * fact.nargs
            candidates = resolver.invoke_candidates(
                substitute(fact.receiver, binding), fact.method
            )
            if not candidates:
                continue
            share = rate / len(candidates)
            for callee in candidates:
                charge(accessor, callee, nbytes * share, share)

        for site in summary.field_accesses:
            fact = site.fact
            rate = ef * _resolved_weight(site, binding, config)
            candidates = resolver.field_candidates(
                substitute(fact.receiver, binding), fact.field
            )
            if not candidates:
                continue
            share = rate / len(candidates)
            for owner in candidates:
                charge(accessor, owner, ACCESS_BYTES * share, share)
                escape.fields.setdefault(
                    (owner, fact.field), StateTraffic()
                ).charge(accessor, client_side, ACCESS_BYTES * share,
                         share, fact.is_write)

        for site in summary.static_accesses:
            fact = site.fact
            rate = ef * _resolved_weight(site, binding, config)
            candidates = resolver.static_candidates(
                fact.class_name, fact.field
            )
            if not candidates:
                continue
            share = rate / len(candidates)
            for owner in candidates:
                charge(accessor, owner, ACCESS_BYTES * share, share)
                escape.statics.setdefault(
                    (owner, fact.field), StateTraffic()
                ).charge(accessor, client_side, ACCESS_BYTES * share,
                         share, fact.is_write)

        for site in summary.array_accesses:
            fact = site.fact
            per_site = incoming.get(method_key)
            if per_site and (
                _has_param(fact.array) or _has_param(fact.count_ref)
            ):
                # Parameter-dependent operands: attribute through each
                # concrete call site so unrelated callers' arrays and
                # counts do not cross-contaminate.
                contexts = [
                    (caller_rate * _resolved_weight(site, site_binding,
                                                    config), site_binding)
                    for caller_rate, site_binding in per_site
                ]
            else:
                contexts = [(ef * _resolved_weight(site, binding, config),
                             binding)]
            for rate, ctx_binding in contexts:
                count = fact.count
                if count is None:
                    ref = substitute(fact.count_ref, ctx_binding)
                    options = _numeric_options(ref)
                    if options:
                        count = max(1, int(max(options)))
                    elif fact.count_ref is None:
                        count = 1
                    else:
                        count = config.default_array_count
                candidates = resolver.array_candidates(
                    substitute(fact.array, ctx_binding)
                )
                if not candidates:
                    continue
                share = rate / len(candidates)
                for array_class in candidates:
                    nbytes = _array_slot_bytes(array_class) * count * share
                    charge(accessor, array_class, nbytes, share)
                    escape.arrays.setdefault(
                        array_class, StateTraffic()
                    ).charge(accessor, client_side, nbytes, share,
                             fact.is_write)

        for site in summary.works:
            fact = site.fact
            seconds = (fact.seconds if fact.seconds is not None
                       else DEFAULT_WORK_SECONDS)
            cpu[accessor] = cpu.get(accessor, 0.0) + (
                seconds * ef * _resolved_weight(site, binding, config)
            )

    # Re-weight the base graph without changing its node or edge sets:
    # the parity tests rely on the static graph staying a superset of
    # every run's monitor graph.
    weighted = ExecutionGraph()
    for node_id in base_graph.nodes():
        stats = base_graph.node(node_id)
        node = weighted.ensure_node(node_id)
        node.memory_bytes = stats.memory_bytes
    for name, seconds in cpu.items():
        if weighted.has_node(name):
            weighted.add_cpu(name, seconds)
    for (a, b), _edge in base_graph.edges():
        key = edge_key(a, b)
        nbytes = max(1, int(round(traffic.get(key, 0.0))))
        count = max(1, int(round(rtts.get(key, 0.0))))
        weighted.record_interaction(a, b, nbytes, count=count)
    # Substitution can only narrow candidate sets, so every traffic key
    # already exists in the base graph; tolerate strays defensively.
    for key, nbytes in traffic.items():
        if weighted.edge(*key) is None:
            weighted.record_interaction(
                key[0], key[1], max(1, int(round(nbytes))),
                count=max(1, int(round(rtts.get(key, 0.0)))),
            )

    cross = 0.0
    for (a, b), edge in weighted.edges():
        if (a in pinned) != (b in pinned):
            cross += edge.bytes

    return TrafficPrediction(
        config=config,
        freq=freq,
        bindings=bindings,
        graph=weighted,
        pinned=pinned,
        escape=escape,
        cross_traffic_bytes=cross,
        edge_rtts=rtts,
        fixpoint_rounds=rounds,
    )
