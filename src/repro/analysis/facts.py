"""Fact model for the static placement analyzer (AIDE-Lint).

Guest method bodies are plain Python functions written against the
narrow :class:`~repro.vm.context.ExecutionContext` API, so their entire
interaction structure is statically recoverable from the AST.  The
extractor (:mod:`repro.analysis.extractor`) walks each registered
method body and produces the *facts* defined here: call sites, field
and static accesses, allocations, array traffic, CPU work, and global
writes.

Receivers and stored values are described by **symbolic value
references** (:class:`ValueRef` subtypes).  A reference either names a
set of concrete guest classes (``Classes``) or defers to program-wide
state resolved later by the fixpoint in
:mod:`repro.analysis.staticgraph` — the contents of a field
(``FieldOf``), of a reference array (``ElemOf``), of a named global
(``GlobalOf``), or a method's return value (``ReturnOf``).  ``Unknown``
marks values the extractor cannot see (caller arguments, host data);
use sites fall back to the *name tables* (every class possessing the
accessed member), which keeps the derived interaction graph a superset
of anything the runtime can observe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Tuple, Union

from ..vm.classloader import ClassRegistry
from ..vm.context import MAIN_CLASS
from ..vm.objectmodel import MethodKind

__all__ = [
    "MAIN_CLASS",
    "ValueRef", "Classes", "Scalar", "StrConst", "NumConst", "IntRange",
    "StrChoice", "Unknown", "CtxRef", "HostRef", "ArrayData", "FieldOf",
    "ElemOf", "GlobalOf", "ReturnOf", "ParamRef", "UnionRef", "union_of",
    "TripCount",
    "classes_of",
    "CallFact", "FieldAccessFact", "StaticAccessFact", "AllocFact",
    "ArrayAllocFact", "ArrayAccessFact", "ElemStoreFact",
    "GlobalWriteFact", "WorkFact", "ReturnFact",
    "MethodFacts", "ProgramFacts", "NameTables",
]


# -- symbolic values ---------------------------------------------------------


class ValueRef:
    """Base class for symbolic descriptions of guest values."""

    __slots__ = ()


@dataclass(frozen=True)
class Classes(ValueRef):
    """A guest object whose class is one of ``names``."""

    names: FrozenSet[str]


@dataclass(frozen=True)
class Scalar(ValueRef):
    """A primitive value; ``kind`` is 'int', 'float', 'bool', 'str' or 'none'."""

    kind: str


@dataclass(frozen=True)
class StrConst(ValueRef):
    """A string constant — candidate class/field/global name."""

    text: str


@dataclass(frozen=True)
class NumConst(ValueRef):
    """A numeric constant (foldable work seconds, array lengths)."""

    value: float


@dataclass(frozen=True)
class IntRange(ValueRef):
    """An integer known to lie in ``[lo, hi]`` (constant-range loops).

    Bound by the extractor for ``for i in range(<const>)`` targets, and
    used to prune branches whose comparisons against constants are
    statically decided (e.g. a render gate whose threshold exceeds the
    loop bound), keeping the predicted graph tight without breaking the
    superset property — a pruned branch cannot execute at runtime."""

    lo: int
    hi: int


@dataclass(frozen=True)
class StrChoice(ValueRef):
    """One of a statically known set of strings (e.g. family names)."""

    options: FrozenSet[str]


@dataclass(frozen=True)
class Unknown(ValueRef):
    """A value the extractor cannot see; use sites fall back to name tables."""


@dataclass(frozen=True)
class CtxRef(ValueRef):
    """The :class:`ExecutionContext` parameter itself."""


@dataclass(frozen=True, eq=False)
class HostRef(ValueRef):
    """A live host-Python object visible at extraction time.

    Compared/hashes by identity (the wrapped object need not be
    hashable); used for closures, module globals, and ``self`` of the
    application object so attribute chains can be resolved eagerly.
    """

    obj: Any = None


@dataclass(frozen=True)
class ArrayData(ValueRef):
    """The ``.data`` attribute of a guest array (host-level contents)."""

    container: ValueRef


@dataclass(frozen=True)
class FieldOf(ValueRef):
    """The contents of ``owner.field``, resolved program-wide."""

    owner: ValueRef
    field: str


@dataclass(frozen=True)
class ElemOf(ValueRef):
    """An element read out of a reference array."""

    container: ValueRef


@dataclass(frozen=True)
class GlobalOf(ValueRef):
    """The contents of the named client-VM global root."""

    name: str


@dataclass(frozen=True)
class ReturnOf(ValueRef):
    """The return value of invoking ``method`` on ``receiver``."""

    receiver: ValueRef
    method: str


@dataclass(frozen=True)
class ParamRef(ValueRef):
    """The ``index``-th guest argument of the enclosing method.

    Indexing starts after the implicit ``(ctx, self)`` pair, matching
    the position in :attr:`CallFact.args` at call sites.  The base
    resolver treats this as :class:`Unknown` (callers are unknown in
    general), preserving the superset property; the interprocedural
    dataflow pass (:mod:`repro.analysis.dataflow`) substitutes merged
    caller arguments to recover constants such as array counts."""

    index: int


@dataclass(frozen=True)
class UnionRef(ValueRef):
    """Any of several alternatives (branch merges, ``a or b``)."""

    parts: Tuple[ValueRef, ...]


_UNKNOWN = Unknown()


def union_of(*refs: ValueRef) -> ValueRef:
    """Merge alternatives, flattening nested unions and dropping dups."""
    flat: List[ValueRef] = []
    for ref in refs:
        if ref is None:
            continue
        parts = ref.parts if isinstance(ref, UnionRef) else (ref,)
        for part in parts:
            if part not in flat:
                flat.append(part)
    if not flat:
        return _UNKNOWN
    if len(flat) == 1:
        return flat[0]
    return UnionRef(tuple(flat))


def classes_of(*names: str) -> Classes:
    return Classes(frozenset(names))


# -- facts -------------------------------------------------------------------
#
# Every site fact carries three loop annotations: ``weight`` — the
# legacy multiplicative estimate baked in by the extractor (LOOP_WEIGHT
# per nesting level, capped) — ``depth`` — the raw syntactic loop
# nesting level — and ``trips`` — one entry per enclosing loop
# (outermost first), holding the loop's constant trip count when its
# ``range`` bound folded to a constant, a symbolic :class:`ValueRef`
# when the bound is a method parameter or similar (the dataflow pass
# resolves it through call-site bindings), or ``None`` when unknown.
# The summary layer re-weights sites as the product of known trips,
# substituting a configurable base B for each unknown level.

#: One enclosing loop's trip count: constant, symbolic, or unknown.
TripCount = Optional[Union[int, ValueRef]]


@dataclass
class CallFact:
    """One ``ctx.invoke`` / ``ctx.invoke_static`` site."""

    receiver: ValueRef
    method: str
    is_static: bool = False
    #: Constant class name for ``invoke_static`` sites, when resolvable.
    class_name: Optional[str] = None
    nargs: int = 0
    weight: int = 1
    line: int = 0
    depth: int = 0
    trips: Tuple[TripCount, ...] = ()
    #: Symbolic guest arguments (after the receiver/class and method
    #: name), consumed by the dataflow pass for constant propagation.
    args: Tuple[ValueRef, ...] = ()


@dataclass
class FieldAccessFact:
    """One ``ctx.get_field`` / ``ctx.set_field`` site."""

    receiver: ValueRef
    field: str
    is_write: bool = False
    value: Optional[ValueRef] = None
    weight: int = 1
    line: int = 0
    depth: int = 0
    trips: Tuple[TripCount, ...] = ()


@dataclass
class StaticAccessFact:
    """One ``ctx.get_static`` / ``ctx.set_static`` site."""

    class_name: Optional[str]
    field: str
    is_write: bool = False
    value: Optional[ValueRef] = None
    weight: int = 1
    line: int = 0
    depth: int = 0
    trips: Tuple[TripCount, ...] = ()


@dataclass
class AllocFact:
    """One ``ctx.new`` site."""

    class_names: Optional[FrozenSet[str]]
    field_values: Dict[str, ValueRef] = field(default_factory=dict)
    weight: int = 1
    line: int = 0
    depth: int = 0
    trips: Tuple[TripCount, ...] = ()


@dataclass
class ArrayAllocFact:
    """One ``ctx.new_array`` site."""

    element_type: Optional[str]
    length: Optional[int] = None
    weight: int = 1
    line: int = 0
    depth: int = 0
    trips: Tuple[TripCount, ...] = ()


@dataclass
class ArrayAccessFact:
    """One ``ctx.array_read`` / ``ctx.array_write`` site."""

    array: ValueRef
    is_write: bool = False
    count: Optional[int] = None
    weight: int = 1
    line: int = 0
    depth: int = 0
    trips: Tuple[TripCount, ...] = ()
    #: Symbolic element count when it is not a literal constant; the
    #: dataflow pass resolves :class:`ParamRef` counts (e.g. the
    #: ``count`` argument of ``System.arraycopy``) through call sites.
    count_ref: Optional[ValueRef] = None


@dataclass
class ElemStoreFact:
    """A host-level store into a reference array: ``arr.data[i] = v``."""

    container: ValueRef
    value: ValueRef
    weight: int = 1
    line: int = 0
    depth: int = 0
    trips: Tuple[TripCount, ...] = ()


@dataclass
class GlobalWriteFact:
    """One ``ctx.set_global`` site."""

    name: str
    value: ValueRef
    weight: int = 1
    line: int = 0
    depth: int = 0
    trips: Tuple[TripCount, ...] = ()


@dataclass
class WorkFact:
    """One ``ctx.work`` site (data-dependent CPU)."""

    seconds: Optional[float] = None
    weight: int = 1
    line: int = 0
    depth: int = 0
    trips: Tuple[TripCount, ...] = ()


@dataclass
class ReturnFact:
    """One ``return`` statement's value."""

    value: ValueRef
    line: int = 0


Fact = Any  # any of the dataclasses above


# -- per-method and whole-program containers ---------------------------------


@dataclass
class MethodFacts:
    """Everything extracted from one guest method body."""

    class_name: str
    method_name: str
    kind: str = "instance"
    facts: List[Fact] = field(default_factory=list)
    returns: List[ValueRef] = field(default_factory=list)
    #: False when the body could not be located/parsed (facts empty).
    analyzed: bool = False
    source_file: Optional[str] = None
    source_line: Optional[int] = None

    def iter_facts(self, fact_type=None) -> Iterator[Fact]:
        for fact in self.facts:
            if fact_type is None or isinstance(fact, fact_type):
                yield fact


class NameTables:
    """Reverse member tables: who defines a method/field of a name.

    These are the duck-typing fallback that keeps the static graph a
    superset of runtime behaviour: when a receiver cannot be resolved,
    the candidate set is every class that *could* answer the access.
    The same tables drive the runtime "did you mean" suggestions.
    """

    def __init__(self) -> None:
        self.method_owners: Dict[str, FrozenSet[str]] = {}
        self.field_owners: Dict[str, FrozenSet[str]] = {}
        self.static_field_owners: Dict[str, FrozenSet[str]] = {}

    @classmethod
    def from_registry(cls, registry: ClassRegistry) -> "NameTables":
        tables = cls()
        methods: Dict[str, set] = {}
        fields: Dict[str, set] = {}
        statics: Dict[str, set] = {}
        for class_def in registry:
            for mdef in class_def.methods():
                methods.setdefault(mdef.name, set()).add(class_def.name)
            for fdef in class_def.fields():
                fields.setdefault(fdef.name, set()).add(class_def.name)
                if fdef.static:
                    statics.setdefault(fdef.name, set()).add(class_def.name)
        tables.method_owners = {k: frozenset(v) for k, v in methods.items()}
        tables.field_owners = {k: frozenset(v) for k, v in fields.items()}
        tables.static_field_owners = {
            k: frozenset(v) for k, v in statics.items()
        }
        return tables


@dataclass
class ProgramFacts:
    """Facts for every registered guest class plus the app entry point."""

    app_name: str
    registry: ClassRegistry
    name_tables: NameTables
    methods: Dict[Tuple[str, str], MethodFacts] = field(default_factory=dict)

    def iter_methods(self) -> Iterator[MethodFacts]:
        return iter(self.methods.values())

    def iter_facts(self, fact_type=None) -> Iterator[Tuple[MethodFacts, Fact]]:
        for mf in self.methods.values():
            for fact in mf.iter_facts(fact_type):
                yield mf, fact

    @property
    def fact_count(self) -> int:
        return sum(len(mf.facts) for mf in self.methods.values())

    def native_method_classes(self, stateless_ok: bool = False) -> FrozenSet[str]:
        """Classes whose metadata pins them (native methods)."""
        pinned = []
        for class_def in self.registry:
            if stateless_ok:
                if class_def.has_stateful_natives:
                    pinned.append(class_def.name)
            elif class_def.has_native_methods:
                pinned.append(class_def.name)
        return frozenset(pinned)

    def stateful_native_sites(self) -> Dict[Tuple[str, str], bool]:
        """Map of (class, method) -> is-stateful for every native method."""
        sites: Dict[Tuple[str, str], bool] = {}
        for class_def in self.registry:
            for mdef in class_def.methods():
                if mdef.kind is MethodKind.NATIVE:
                    sites[(class_def.name, mdef.name)] = not mdef.stateless
        return sites
