"""Program-wide resolution and the predicted interaction graph.

The extractor produces per-method facts whose receivers are *symbolic*
(:class:`~repro.analysis.facts.ValueRef`).  This module closes the loop:

* :class:`Resolver` — a fixpoint over the program's store facts (field
  writes, allocation keywords, reference-array stores, global writes,
  return values) that maps every symbolic reference to the set of guest
  classes it may denote.  Unresolvable references fall back to the name
  tables (every class owning the accessed member), which keeps every
  downstream product a *superset* of runtime behaviour.
* :func:`predict_graph` — the static counterpart of the monitor's
  :class:`~repro.core.graph.ExecutionGraph`: one node per class, one
  edge per possible cross-class interaction, weighted by syntactic loop
  depth and nominal message sizes.
* :func:`derive_hints` / :func:`build_seed` — converts the predicted
  graph into :class:`~repro.core.hints.PlacementHints` (pin advisories
  and co-location groups) plus an interaction profile, packaged as a
  :class:`~repro.core.hints.ColdStartSeed` for the offloading engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Dict, FrozenSet, Optional, Set, Tuple

from ..core.graph import ExecutionGraph
from ..core.hints import ColdStartSeed, PlacementHints, interaction_profile
from ..vm.objectmodel import array_class_name
from .facts import (
    MAIN_CLASS,
    AllocFact,
    ArrayAccessFact,
    ArrayAllocFact,
    ArrayData,
    CallFact,
    Classes,
    CtxRef,
    ElemOf,
    ElemStoreFact,
    FieldAccessFact,
    FieldOf,
    GlobalOf,
    GlobalWriteFact,
    HostRef,
    IntRange,
    NumConst,
    ParamRef,
    ProgramFacts,
    ReturnOf,
    Scalar,
    StaticAccessFact,
    StrChoice,
    StrConst,
    UnionRef,
    Unknown,
    ValueRef,
    WorkFact,
)

#: Fixpoint iteration cap — generously above any real program's depth.
MAX_ROUNDS = 25

#: Nominal wire sizes for predicted edges (bytes).  These mirror the
#: runtime's reference-slot accounting loosely; the predicted graph's
#: job is structure and relative weight, not byte-exact traffic.
INVOKE_BASE_BYTES = 24
ARG_BYTES = 8
ACCESS_BYTES = 8
#: Nominal CPU seconds for a ``ctx.work`` site whose argument is not a
#: compile-time constant.
DEFAULT_WORK_SECONDS = 1e-4


class _Cell:
    """One store entry: classes observed flowing in + an unknown taint."""

    __slots__ = ("classes", "unknown")

    def __init__(self) -> None:
        self.classes: Set[str] = set()
        self.unknown = False

    def merge(self, classes: Set[str], unknown: bool) -> bool:
        changed = False
        if not classes <= self.classes:
            self.classes |= classes
            changed = True
        if unknown and not self.unknown:
            self.unknown = True
            changed = True
        return changed


_EMPTY: Tuple[Set[str], bool] = (set(), False)


class Resolver:
    """Fixpoint resolution of symbolic references to class-name sets."""

    def __init__(self, program: ProgramFacts) -> None:
        self.program = program
        self.tables = program.name_tables
        self.field_store: Dict[Tuple[str, str], _Cell] = {}
        self.globals_store: Dict[str, _Cell] = {}
        self.returns_store: Dict[Tuple[str, str], _Cell] = {}
        #: Program-wide pool of classes stored into reference arrays.
        self.elem_pool = _Cell()
        #: Array class names allocated anywhere (``int[]`` …), the
        #: fallback candidate set for unresolvable array operands.
        self.array_classes: Set[str] = set()
        self._unanalyzed: Set[Tuple[str, str]] = {
            (mf.class_name, mf.method_name)
            for mf in program.iter_methods()
            if not mf.analyzed
        }
        self.rounds = 0
        self._solve()

    # -- fixpoint ------------------------------------------------------------

    def _solve(self) -> None:
        for mf, fact in self.program.iter_facts(ArrayAllocFact):
            if fact.element_type is not None:
                self.array_classes.add(array_class_name(fact.element_type))
        for self.rounds in range(1, MAX_ROUNDS + 1):
            if not self._pass():
                break

    def _pass(self) -> bool:
        changed = False
        for mf, fact in self.program.iter_facts():
            if isinstance(fact, AllocFact):
                if not fact.class_names or not fact.field_values:
                    continue
                for name, value in fact.field_values.items():
                    resolved = self.resolve(value)
                    for cls in fact.class_names:
                        cell = self.field_store.setdefault(
                            (cls, name), _Cell()
                        )
                        changed |= cell.merge(*resolved)
            elif isinstance(fact, FieldAccessFact):
                if not fact.is_write or fact.value is None:
                    continue
                resolved = self.resolve(fact.value)
                for owner in self.field_candidates(fact.receiver, fact.field):
                    cell = self.field_store.setdefault(
                        (owner, fact.field), _Cell()
                    )
                    changed |= cell.merge(*resolved)
            elif isinstance(fact, StaticAccessFact):
                if not fact.is_write or fact.value is None:
                    continue
                resolved = self.resolve(fact.value)
                for owner in self.static_candidates(fact.class_name,
                                                    fact.field):
                    cell = self.field_store.setdefault(
                        (owner, fact.field), _Cell()
                    )
                    changed |= cell.merge(*resolved)
            elif isinstance(fact, ElemStoreFact):
                changed |= self.elem_pool.merge(*self.resolve(fact.value))
            elif isinstance(fact, GlobalWriteFact):
                cell = self.globals_store.setdefault(fact.name, _Cell())
                changed |= cell.merge(*self.resolve(fact.value))
        for mf in self.program.iter_methods():
            if not mf.returns:
                continue
            key = (mf.class_name, mf.method_name)
            cell = self.returns_store.setdefault(key, _Cell())
            for value in mf.returns:
                changed |= cell.merge(*self.resolve(value))
        return changed

    # -- reference resolution -----------------------------------------------

    def resolve(
        self, ref: ValueRef, _seen: FrozenSet[ValueRef] = frozenset()
    ) -> Tuple[Set[str], bool]:
        """Map a symbolic reference to (possible classes, unknown taint)."""
        if ref in _seen:
            return _EMPTY
        if isinstance(ref, Classes):
            return set(ref.names), False
        if isinstance(ref, (Scalar, StrConst, NumConst, IntRange, StrChoice,
                            CtxRef, HostRef, ArrayData)):
            return _EMPTY
        if isinstance(ref, (Unknown, ParamRef)):
            # Callers are unknown in general: a parameter could be
            # anything, so the name-table fallback applies (superset
            # property).  The dataflow pass substitutes real arguments.
            return set(), True
        seen = _seen | {ref}
        if isinstance(ref, UnionRef):
            classes: Set[str] = set()
            unknown = False
            for part in ref.parts:
                part_classes, part_unknown = self.resolve(part, seen)
                classes |= part_classes
                unknown |= part_unknown
            return classes, unknown
        if isinstance(ref, FieldOf):
            owners = self._owner_candidates(
                ref.owner, ref.field, self.tables.field_owners, seen
            )
            return self._read_cells(
                (self.field_store.get((owner, ref.field))
                 for owner in owners)
            )
        if isinstance(ref, ElemOf):
            return set(self.elem_pool.classes), self.elem_pool.unknown
        if isinstance(ref, GlobalOf):
            cell = self.globals_store.get(ref.name)
            if cell is None:
                return set(), True
            return set(cell.classes), cell.unknown
        if isinstance(ref, ReturnOf):
            owners = self._owner_candidates(
                ref.receiver, ref.method, self.tables.method_owners, seen
            )
            classes = set()
            unknown = False
            for owner in owners:
                if (owner, ref.method) in self._unanalyzed:
                    unknown = True
                cell = self.returns_store.get((owner, ref.method))
                if cell is not None:
                    classes |= cell.classes
                    unknown |= cell.unknown
            return classes, unknown
        return set(), True

    @staticmethod
    def _read_cells(cells) -> Tuple[Set[str], bool]:
        classes: Set[str] = set()
        unknown = False
        for cell in cells:
            if cell is None:
                continue
            classes |= cell.classes
            unknown |= cell.unknown
        return classes, unknown

    def _owner_candidates(
        self,
        receiver: ValueRef,
        member: str,
        table: Dict[str, FrozenSet[str]],
        seen: FrozenSet[ValueRef] = frozenset(),
    ) -> Set[str]:
        """Candidate owner classes for a member access.

        A resolved receiver narrows the set to classes actually having
        the member; an unresolved one falls back to every class that
        *could* answer it (the duck-typing name table), preserving the
        superset property.
        """
        classes, unknown = self.resolve(receiver, seen)
        owners = table.get(member, frozenset())
        narrowed = {c for c in classes if c in owners} if classes else set()
        if narrowed and not unknown:
            return narrowed
        return narrowed | set(owners)

    # -- use-site candidate sets ----------------------------------------------

    def invoke_candidates(self, receiver: ValueRef, method: str) -> Set[str]:
        return self._owner_candidates(
            receiver, method, self.tables.method_owners
        )

    def field_candidates(self, receiver: ValueRef, field: str) -> Set[str]:
        return self._owner_candidates(
            receiver, field, self.tables.field_owners
        )

    def static_candidates(
        self, class_name: Optional[str], field: str
    ) -> Set[str]:
        if class_name is not None:
            return {class_name}
        return set(self.tables.static_field_owners.get(field, frozenset()))

    def array_candidates(self, array: ValueRef) -> Set[str]:
        classes, unknown = self.resolve(array)
        arrays = {c for c in classes if c.endswith("[]")}
        if arrays and not unknown:
            return arrays
        return arrays | set(self.array_classes)


# -- the predicted graph -----------------------------------------------------


def predict_graph(
    program: ProgramFacts, resolver: Optional[Resolver] = None
) -> ExecutionGraph:
    """Build the static counterpart of the runtime execution graph.

    Every class the program can touch becomes a node; every statically
    possible cross-class interaction becomes an edge with nominal bytes
    scaled by syntactic loop weight.  By construction the result's node
    and edge sets are supersets of what any run's monitor observes
    (verified per-app by the parity tests).
    """
    resolver = resolver or Resolver(program)
    graph = ExecutionGraph()
    graph.ensure_node(MAIN_CLASS)
    for class_def in program.registry.app_classes():
        graph.ensure_node(class_def.name)
    for name in sorted(resolver.array_classes):
        graph.ensure_node(name)

    for mf in program.iter_methods():
        accessor = mf.class_name
        for fact in mf.facts:
            if isinstance(fact, CallFact):
                nbytes = INVOKE_BASE_BYTES + ARG_BYTES * fact.nargs
                for callee in sorted(resolver.invoke_candidates(
                        fact.receiver, fact.method)):
                    graph.record_interaction(accessor, callee,
                                             nbytes * fact.weight)
            elif isinstance(fact, FieldAccessFact):
                for owner in sorted(resolver.field_candidates(
                        fact.receiver, fact.field)):
                    graph.record_interaction(accessor, owner,
                                             ACCESS_BYTES * fact.weight)
            elif isinstance(fact, StaticAccessFact):
                for owner in sorted(resolver.static_candidates(
                        fact.class_name, fact.field)):
                    graph.record_interaction(accessor, owner,
                                             ACCESS_BYTES * fact.weight)
            elif isinstance(fact, ArrayAccessFact):
                count = fact.count if fact.count is not None else 8
                for owner in sorted(resolver.array_candidates(fact.array)):
                    graph.record_interaction(
                        accessor, owner,
                        ACCESS_BYTES * count * fact.weight,
                    )
            elif isinstance(fact, AllocFact):
                if fact.class_names:
                    for name in fact.class_names:
                        if program.registry.has_class(name):
                            node = graph.ensure_node(name)
                            node.memory_bytes += (
                                program.registry.lookup(name).instance_size
                                * fact.weight
                            )
            elif isinstance(fact, ArrayAllocFact):
                if fact.element_type is not None:
                    name = array_class_name(fact.element_type)
                    graph.ensure_node(name)
            elif isinstance(fact, WorkFact):
                seconds = (fact.seconds if fact.seconds is not None
                           else DEFAULT_WORK_SECONDS)
                graph.add_cpu(accessor, seconds * fact.weight)
    return graph


# -- hints and the cold-start seed -------------------------------------------

#: An edge this share of *both* endpoints' total adjacent bytes marks
#: the pair as one semantic component worth keeping together.
COLOCATE_SHARE = 0.5


@dataclass
class StaticAnalysis:
    """The bundled products of one static-analysis run."""

    program: ProgramFacts
    resolver: Resolver
    graph: ExecutionGraph
    hints: PlacementHints
    seed: ColdStartSeed
    colocation_groups: Tuple[FrozenSet[str], ...] = ()
    shared_classes: FrozenSet[str] = frozenset()
    pin_advisories: Dict[str, str] = dataclass_field(default_factory=dict)
    #: Interprocedural traffic estimate (``None`` only when a caller
    #: assembles the dataclass by hand without running the pass).
    traffic: Optional["TrafficPrediction"] = None

    @property
    def weighted_graph(self) -> ExecutionGraph:
        """The traffic-weighted graph (falls back to the base graph)."""
        if self.traffic is not None:
            return self.traffic.graph
        return self.graph


def _adjacent_bytes(graph: ExecutionGraph, node: str) -> int:
    return sum(edge.bytes for _, edge in graph.adjacent_edges(node))


def colocation_groups(
    graph: ExecutionGraph,
    pinned: FrozenSet[str],
) -> Tuple[FrozenSet[str], ...]:
    """Groups of offloadable classes dominated by mutual interaction.

    Two nodes belong together when the edge between them carries at
    least :data:`COLOCATE_SHARE` of each endpoint's total traffic —
    splitting such a pair would cut the majority of both ends' links.
    Pinned classes and the entry point never join a group (grouping a
    pinned class would drag its partners onto the client).
    """
    totals = {node: _adjacent_bytes(graph, node) for node in graph.nodes()}
    parent: Dict[str, str] = {}

    def find(node: str) -> str:
        root = node
        while parent.get(root, root) != root:
            root = parent[root]
        parent[node] = root
        return root

    for (a, b), edge in graph.edges():
        if a in pinned or b in pinned or MAIN_CLASS in (a, b):
            continue
        if totals[a] <= 0 or totals[b] <= 0:
            continue
        share_a = edge.bytes / totals[a]
        share_b = edge.bytes / totals[b]
        if share_a >= COLOCATE_SHARE and share_b >= COLOCATE_SHARE:
            parent[find(a)] = find(b)

    groups: Dict[str, Set[str]] = {}
    for node in parent:
        groups.setdefault(find(node), set()).add(node)
    return tuple(
        frozenset(members) for members in groups.values()
        if len(members) >= 2
    )


def shared_class_pathology(
    graph: ExecutionGraph, pinned: FrozenSet[str]
) -> FrozenSet[str]:
    """Offloadable nodes strongly coupled to both sides of the cut.

    This is the paper's Dia pathology: a class (the preview's ``int[]``
    scratch arrays) referenced heavily both by pinned client classes and
    by offloadable ones, so either placement pays wire traffic.
    """
    flagged = []
    for node in graph.nodes():
        if node in pinned or node == MAIN_CLASS:
            continue
        pinned_bytes = 0
        offload_bytes = 0
        for neighbor, edge in graph.adjacent_edges(node):
            if neighbor in pinned or neighbor == MAIN_CLASS:
                pinned_bytes += edge.bytes
            else:
                offload_bytes += edge.bytes
        total = pinned_bytes + offload_bytes
        if total <= 0:
            continue
        if pinned_bytes >= total * 0.25 and offload_bytes >= total * 0.25:
            flagged.append(node)
    return frozenset(flagged)


#: Predicted traffic share to the pinned side above which a class is
#: advised to stay on the client (see :func:`pinned_affinity`).
PIN_AFFINITY = 0.9
#: ...but never when the class holds more than this share of the
#: predicted heap: memory-heavy classes are exactly what the memory
#: policy needs the freedom to offload.
PIN_MEMORY_SHARE_CAP = 0.01


def pinned_affinity(
    graph: ExecutionGraph, pinned: FrozenSet[str]
) -> FrozenSet[str]:
    """Offloadable classes whose predicted traffic stays client-side.

    A class that talks almost exclusively (:data:`PIN_AFFINITY`) to
    pinned classes and the entry point — a file loader bouncing every
    call off a stateful native, an input handler driven only by
    ``<main>`` — pays a wire crossing for every interaction if it is
    ever dragged to the surrogate as cluster ballast.  Array classes
    are exempt (they are the paper's migration payload), as is any
    class with non-trivial predicted memory: pinning those would starve
    the memory policy of the very state it needs to move.
    """
    total_memory = graph.total_memory()
    pins = []
    for node in graph.nodes():
        if node in pinned or node.endswith("[]"):
            continue
        pinned_bytes = 0
        total_bytes = 0
        for neighbor, edge in graph.adjacent_edges(node):
            total_bytes += edge.bytes
            if neighbor in pinned:
                pinned_bytes += edge.bytes
        if total_bytes <= 0 or pinned_bytes / total_bytes < PIN_AFFINITY:
            continue
        memory = graph.node(node).memory_bytes
        if total_memory and memory > total_memory * PIN_MEMORY_SHARE_CAP:
            continue
        pins.append(node)
    return frozenset(pins)


def derive_hints(
    graph: ExecutionGraph,
    pinned: FrozenSet[str],
    static_writers: Dict[str, str],
) -> Tuple[PlacementHints, Tuple[FrozenSet[str], ...]]:
    """Convert predicted structure into placement hints.

    ``pin_local`` carries the advisory pins — offloadable classes that
    write client-resident statics, plus the :func:`pinned_affinity`
    classes whose predicted traffic is almost entirely client-side;
    ``keep_together`` carries the co-location groups.  The mandatory
    pins (native holders) are *not* duplicated here — the runtime
    derives those itself.
    """
    groups = colocation_groups(graph, pinned)
    pin_local = frozenset(
        name for name in static_writers if name not in pinned
    ) | pinned_affinity(graph, pinned)
    # A class cannot be both pinned-by-hint and grouped: contraction
    # would pin the whole group.
    groups = tuple(
        group for group in groups if not (group & pin_local)
    )
    return PlacementHints(pin_local=pin_local, keep_together=groups), groups


def find_static_writers(
    program: ProgramFacts, resolver: Resolver
) -> Dict[str, str]:
    """Offloadable classes that write static (client-resident) fields."""
    writers: Dict[str, str] = {}
    pinned = program.native_method_classes()
    for mf, fact in program.iter_facts(StaticAccessFact):
        if not fact.is_write:
            continue
        cls = mf.class_name
        if cls == MAIN_CLASS or cls in pinned:
            continue
        owners = resolver.static_candidates(fact.class_name, fact.field)
        if owners:
            writers.setdefault(
                cls, f"writes static {sorted(owners)[0]}.{fact.field}"
            )
    return writers


def analyze_program(
    program: ProgramFacts,
    dataflow_config=None,
) -> StaticAnalysis:
    """Run resolution, graph and traffic prediction, hint derivation.

    Structural products (node/edge sets, lint name checks) come from
    the base predicted graph; *weight-sensitive* products — placement
    hints, co-location groups, the shared-class pathology, and the
    cold-start seed profile — consume the interprocedurally weighted
    graph so hot edges dominate as they would at runtime.
    """
    from .dataflow import predict_traffic

    resolver = Resolver(program)
    graph = predict_graph(program, resolver)
    pinned = frozenset(program.native_method_classes()) | {MAIN_CLASS}
    traffic = predict_traffic(
        program, resolver, base_graph=graph, pinned=pinned,
        config=dataflow_config,
    )
    static_writers = find_static_writers(program, resolver)
    hints, groups = derive_hints(traffic.graph, pinned, static_writers)
    seed = ColdStartSeed(
        hints=hints if (hints.pin_local or hints.has_groups) else None,
        profile=interaction_profile(traffic.graph),
        source=f"static-analysis:{program.app_name}",
        predicted_cross_traffic=traffic.cross_traffic_bytes,
    )
    return StaticAnalysis(
        program=program,
        resolver=resolver,
        graph=graph,
        hints=hints,
        seed=seed,
        colocation_groups=groups,
        shared_classes=shared_class_pathology(traffic.graph, pinned),
        pin_advisories=static_writers,
        traffic=traffic,
    )
