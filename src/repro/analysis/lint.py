"""AIDE-Lint: placement-aware diagnostics for guest applications.

Rules are grouped by severity band:

====== ======== ==========================================================
Code   Severity Meaning
====== ======== ==========================================================
AL101  error    unknown class name at an allocation/static-call site
AL102  error    no registered class defines the invoked method
AL103  error    no registered class defines the accessed field
AL104  error    ``invoke_static`` of a non-static method
AL201  warning  value stored into a field of an incompatible declared type
AL202  warning  static-field write from offloadable code (client round-trip)
AL203  warning  call into a stateful native from an offloadable class
AL204  warning  cross-cluster shared class (the paper's Dia pathology)
AL301  info     declared field never accessed anywhere in the program
AL302  info     registered class never allocated, invoked, or accessed
AL303  info     class name at this site is not a compile-time constant
AL401  warning  read-modify-write of a remote field inside a loop
AL402  warning  per-element access to a remote-majority array in a loop
AL403  warning  field only ever written, and written across the boundary
AL404  warning  mutable static reached from both placement clusters
====== ======== ==========================================================

Error-band rules find code the runtime would reject
(``NoSuchClassError`` / ``NoSuchMethodError`` / ``NoSuchFieldError``);
the CI lint gate fails on them.  Warning-band rules flag placement
pathologies that are *legal* but costly — several fire intentionally on
the bundled apps because they reproduce the paper's native-bounce and
shared-scratch effects.  Info-band rules are hygiene.

The AL4xx band (chatty-interface diagnostics) is powered by the
interprocedural dataflow pass: each finding quotes the *predicted*
byte and round-trip cost of the pattern, computed from method call
frequencies and loop trip counts.  The rules are tuned to stay silent
on the six bundled apps — their cross-partition traffic is bulk
transfers and intentional pathologies already covered by AL2xx — while
firing on genuinely chatty shapes (element-at-a-time remote loops,
blind remote writes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set

from ..vm.objectmodel import MethodKind, array_class_name, suggest_name
from .dataflow import substitute
from .facts import (
    MAIN_CLASS,
    AllocFact,
    ArrayAccessFact,
    ArrayAllocFact,
    CallFact,
    Classes,
    FieldAccessFact,
    MethodFacts,
    NumConst,
    ProgramFacts,
    Scalar,
    StaticAccessFact,
    StrChoice,
    StrConst,
    ValueRef,
)
from .staticgraph import ACCESS_BYTES, Resolver, StaticAnalysis

ERROR = "error"
WARNING = "warning"
INFO = "info"

#: AL402 fires only when the per-element site is predicted to run at
#: least this often per program run — cold loops are not worth a
#: restructuring warning.
AL402_MIN_RATE = 32.0
#: AL403/AL404 fire only above this much predicted wire traffic.
AL4XX_MIN_BYTES = 64.0

_SEVERITY_ORDER = {ERROR: 0, WARNING: 1, INFO: 2}

#: One-line summary per rule code (mirrors the module docstring table;
#: rendered into SARIF rule metadata and the docs).
RULE_SUMMARIES = {
    "AL101": "allocation or static call names a class that does not exist",
    "AL102": "invocation names a method the receiver cannot have",
    "AL103": "field access names a field the owner cannot have",
    "AL104": "static invocation of an instance method (or vice versa)",
    "AL201": "value stored into a field of an incompatible declared type",
    "AL202": "static-field write from offloadable code (client round-trip)",
    "AL203": "call into a stateful native from an offloadable class",
    "AL204": "cross-cluster shared class (the paper's Dia pathology)",
    "AL301": "declared field never accessed anywhere in the program",
    "AL302": "registered class never allocated, invoked, or accessed",
    "AL303": "class name at this site is not a compile-time constant",
    "AL401": "read-modify-write of a remote field inside a loop",
    "AL402": "per-element access to a remote-majority array in a loop",
    "AL403": "field only ever written, and written across the boundary",
    "AL404": "mutable static reached from both placement clusters",
}

#: Primitive field type names (everything else is reference-typed).
_PRIMITIVE_TYPES = frozenset(
    ("int", "long", "float", "double", "bool", "byte", "char", "short")
)
_NUMERIC_TYPES = _PRIMITIVE_TYPES - {"char"}


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding with a stable rule code."""

    rule: str
    severity: str
    message: str
    class_name: str
    method_name: str
    line: int = 0
    source_file: Optional[str] = None

    def sort_key(self):
        return (
            _SEVERITY_ORDER[self.severity], self.rule,
            self.class_name, self.method_name, self.line, self.message,
        )

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "class": self.class_name,
            "method": self.method_name,
            "line": self.line,
            "file": self.source_file,
        }


class Linter:
    """Runs every rule over one program's facts."""

    def __init__(self, analysis: StaticAnalysis) -> None:
        self.analysis = analysis
        self.program: ProgramFacts = analysis.program
        self.resolver: Resolver = analysis.resolver
        self.registry = self.program.registry
        self.tables = self.program.name_tables
        self.diagnostics: List[Diagnostic] = []
        self._pinned = frozenset(
            self.program.native_method_classes()
        ) | {MAIN_CLASS}

    # -- helpers --------------------------------------------------------------

    def _emit(
        self, mf: MethodFacts, rule: str, severity: str, message: str,
        line: int,
    ) -> None:
        self.diagnostics.append(Diagnostic(
            rule=rule, severity=severity, message=message,
            class_name=mf.class_name, method_name=mf.method_name,
            line=line, source_file=mf.source_file,
        ))

    @staticmethod
    def _const_names(ref: ValueRef) -> Optional[FrozenSet[str]]:
        if isinstance(ref, StrConst):
            return frozenset((ref.text,))
        if isinstance(ref, StrChoice):
            return ref.options
        return None

    # -- the run --------------------------------------------------------------

    def run(self) -> List[Diagnostic]:
        self.diagnostics = []
        for mf in self.program.iter_methods():
            for fact in mf.facts:
                if isinstance(fact, AllocFact):
                    self._check_alloc(mf, fact)
                elif isinstance(fact, ArrayAllocFact):
                    self._check_array_alloc(mf, fact)
                elif isinstance(fact, CallFact):
                    self._check_call(mf, fact)
                elif isinstance(fact, FieldAccessFact):
                    self._check_field_access(mf, fact)
                elif isinstance(fact, StaticAccessFact):
                    self._check_static_access(mf, fact)
        self._check_shared_classes()
        self._check_unused()
        self._check_dataflow()
        self.diagnostics.sort(key=Diagnostic.sort_key)
        self._dedupe_al303()
        return self.diagnostics

    def _dedupe_al303(self) -> None:
        """One non-constant-name site, one AL303 diagnostic.

        Helper inlining replays a shared helper's body once per caller,
        so the same source line would otherwise report once for every
        class that inlines it.
        """
        seen: Set[tuple] = set()
        kept: List[Diagnostic] = []
        for diag in self.diagnostics:
            if diag.rule == "AL303":
                site = (diag.source_file, diag.line, diag.message)
                if site in seen:
                    continue
                seen.add(site)
            kept.append(diag)
        self.diagnostics = kept

    # -- AL101/AL303: class names ---------------------------------------------

    def _check_alloc(self, mf: MethodFacts, fact: AllocFact) -> None:
        if fact.class_names is None:
            self._emit(
                mf, "AL303", INFO,
                "allocation class name is not a compile-time constant",
                fact.line,
            )
            return
        known = []
        for name in sorted(fact.class_names):
            if not self.registry.has_class(name):
                hint = suggest_name(name, self.registry.class_names())
                self._emit(
                    mf, "AL101", ERROR,
                    f"allocation of unknown class {name!r}{hint}",
                    fact.line,
                )
            else:
                known.append(name)
        for field_name, value in fact.field_values.items():
            owners = [n for n in known
                      if self.registry.lookup(n).has_field(field_name)]
            if known and not owners:
                declared: Set[str] = set()
                for n in known:
                    declared.update(self.registry.lookup(n).field_names())
                hint = suggest_name(field_name, declared)
                self._emit(
                    mf, "AL103", ERROR,
                    f"allocation keyword {field_name!r} matches no field "
                    f"of {', '.join(known)}{hint}", fact.line,
                )
            elif owners:
                self._check_type(mf, owners, field_name, value, fact.line)

    def _check_array_alloc(self, mf: MethodFacts, fact: ArrayAllocFact) -> None:
        if fact.element_type is None:
            self._emit(
                mf, "AL303", INFO,
                "array element type is not a compile-time constant",
                fact.line,
            )
            return
        if not self.registry.has_class(array_class_name(fact.element_type)):
            self._emit(
                mf, "AL101", ERROR,
                f"array allocation of unknown element type "
                f"{fact.element_type!r}", fact.line,
            )

    # -- AL102/AL104/AL203: calls ---------------------------------------------

    def _check_call(self, mf: MethodFacts, fact: CallFact) -> None:
        owners = self.tables.method_owners.get(fact.method, frozenset())
        if fact.is_static:
            if fact.class_name is None:
                const = self._const_names(fact.receiver)
                if const is None:
                    self._emit(
                        mf, "AL303", INFO,
                        f"static call target for {fact.method!r} is not a "
                        f"compile-time constant", fact.line,
                    )
            else:
                if not self.registry.has_class(fact.class_name):
                    hint = suggest_name(fact.class_name,
                                        self.registry.class_names())
                    self._emit(
                        mf, "AL101", ERROR,
                        f"static call on unknown class "
                        f"{fact.class_name!r}{hint}", fact.line,
                    )
                    return
                cls = self.registry.lookup(fact.class_name)
                if not cls.has_method(fact.method):
                    hint = suggest_name(fact.method, cls.method_names())
                    self._emit(
                        mf, "AL102", ERROR,
                        f"class {fact.class_name!r} has no method "
                        f"{fact.method!r}{hint}", fact.line,
                    )
                    return
                mdef = cls.method(fact.method)
                if mdef.kind is MethodKind.INSTANCE:
                    self._emit(
                        mf, "AL104", ERROR,
                        f"invoke_static of instance method "
                        f"{fact.class_name}.{fact.method}", fact.line,
                    )
        elif not owners:
            hint = suggest_name(fact.method, self.tables.method_owners)
            self._emit(
                mf, "AL102", ERROR,
                f"no registered class defines method {fact.method!r}{hint}",
                fact.line,
            )
            return
        self._check_native_transition(mf, fact)

    def _check_native_transition(self, mf: MethodFacts, fact: CallFact) -> None:
        if mf.class_name in self._pinned:
            return
        stateful_sites = self.program.stateful_native_sites()
        candidates = self.resolver.invoke_candidates(
            fact.receiver, fact.method
        )
        bounce = sorted(
            cls for cls in candidates
            if stateful_sites.get((cls, fact.method))
        )
        if bounce:
            self._emit(
                mf, "AL203", WARNING,
                f"offloadable class calls stateful native "
                f"{bounce[0]}.{fact.method}; every remote call bounces "
                f"back to the client", fact.line,
            )

    # -- AL103/AL201/AL202: fields --------------------------------------------

    def _check_field_access(self, mf: MethodFacts, fact: FieldAccessFact) -> None:
        owners = self.tables.field_owners.get(fact.field, frozenset())
        if not owners:
            hint = suggest_name(fact.field, self.tables.field_owners)
            self._emit(
                mf, "AL103", ERROR,
                f"no registered class defines field {fact.field!r}{hint}",
                fact.line,
            )
            return
        if fact.is_write and fact.value is not None:
            candidates = self.resolver.field_candidates(
                fact.receiver, fact.field
            )
            narrowed = sorted(candidates & owners) or sorted(owners)
            self._check_type(mf, narrowed, fact.field, fact.value, fact.line)

    def _check_static_access(self, mf: MethodFacts, fact: StaticAccessFact) -> None:
        if fact.class_name is None:
            self._emit(
                mf, "AL303", INFO,
                f"static access target for field {fact.field!r} is not a "
                f"compile-time constant", fact.line,
            )
        else:
            if not self.registry.has_class(fact.class_name):
                hint = suggest_name(fact.class_name,
                                    self.registry.class_names())
                self._emit(
                    mf, "AL101", ERROR,
                    f"static access on unknown class "
                    f"{fact.class_name!r}{hint}", fact.line,
                )
                return
            cls = self.registry.lookup(fact.class_name)
            if not cls.has_field(fact.field) or not cls.field(fact.field).static:
                static_names = [f.name for f in cls.fields() if f.static]
                hint = suggest_name(fact.field, static_names)
                self._emit(
                    mf, "AL103", ERROR,
                    f"class {fact.class_name!r} has no static field "
                    f"{fact.field!r}{hint}", fact.line,
                )
                return
        if fact.is_write and mf.class_name not in self._pinned:
            self._emit(
                mf, "AL202", WARNING,
                f"static field {fact.field!r} written from offloadable "
                f"class; statics live on the client, so every remote "
                f"write round-trips the link", fact.line,
            )

    def _check_type(
        self, mf: MethodFacts, owners: List[str], field_name: str,
        value: ValueRef, line: int,
    ) -> None:
        """AL201: only blatant mismatches, judged against *all* owners."""
        declared = set()
        for owner in owners:
            if not self.registry.has_class(owner):
                return
            cls = self.registry.lookup(owner)
            if not cls.has_field(field_name):
                return
            declared.add(cls.field(field_name).type_name)
        if not declared:
            return
        value_is_object = isinstance(value, Classes)
        value_is_str = (
            isinstance(value, StrConst)
            or (isinstance(value, Scalar) and value.kind == "str")
        )
        value_is_number = isinstance(value, NumConst) or (
            isinstance(value, Scalar) and value.kind in ("int", "float")
        )
        if value_is_object and declared <= _PRIMITIVE_TYPES:
            self._emit(
                mf, "AL201", WARNING,
                f"object stored into primitive field {field_name!r} "
                f"(declared {sorted(declared)[0]!r})", line,
            )
        elif value_is_str and declared <= _NUMERIC_TYPES:
            self._emit(
                mf, "AL201", WARNING,
                f"string stored into numeric field {field_name!r} "
                f"(declared {sorted(declared)[0]!r})", line,
            )
        elif value_is_number and declared == {"ref"}:
            # Numbers into ref slots are how guest code models boxed
            # values throughout the bundled apps; not worth flagging.
            pass

    # -- AL204: shared-class pathology ----------------------------------------

    def _check_shared_classes(self) -> None:
        for node in sorted(self.analysis.shared_classes):
            self.diagnostics.append(Diagnostic(
                rule="AL204", severity=WARNING,
                message=(
                    f"class {node!r} interacts heavily with both pinned "
                    f"and offloadable clusters; either placement pays "
                    f"wire traffic (consider restructuring or a "
                    f"keep_together hint)"
                ),
                class_name=node, method_name="<class>",
            ))

    # -- AL301/AL302: unused declarations --------------------------------------

    def _used_members(self) -> Dict[str, Set[str]]:
        """Map class -> field names the program may touch on it."""
        used: Dict[str, Set[str]] = {}
        for mf, fact in self.program.iter_facts(FieldAccessFact):
            for owner in self.tables.field_owners.get(fact.field, ()):
                used.setdefault(owner, set()).add(fact.field)
        for mf, fact in self.program.iter_facts(StaticAccessFact):
            for owner in self.resolver.static_candidates(
                fact.class_name, fact.field
            ):
                used.setdefault(owner, set()).add(fact.field)
        for mf, fact in self.program.iter_facts(AllocFact):
            for owner in fact.class_names or ():
                used.setdefault(owner, set()).update(fact.field_values)
        return used

    def _referenced_classes(self) -> Set[str]:
        referenced: Set[str] = set()
        for mf, fact in self.program.iter_facts(AllocFact):
            referenced |= set(fact.class_names or ())
        for mf, fact in self.program.iter_facts(CallFact):
            referenced |= self.resolver.invoke_candidates(
                fact.receiver, fact.method
            )
        for mf, fact in self.program.iter_facts(FieldAccessFact):
            referenced |= self.resolver.field_candidates(
                fact.receiver, fact.field
            )
        for mf, fact in self.program.iter_facts(StaticAccessFact):
            referenced |= self.resolver.static_candidates(
                fact.class_name, fact.field
            )
        return referenced

    def _check_unused(self) -> None:
        used_fields = self._used_members()
        referenced = self._referenced_classes()
        for class_def in self.registry.app_classes():
            if class_def.category != "app":
                continue
            if class_def.name not in referenced:
                self.diagnostics.append(Diagnostic(
                    rule="AL302", severity=INFO,
                    message=(
                        f"class {class_def.name!r} is registered but "
                        f"never allocated, invoked, or accessed"
                    ),
                    class_name=class_def.name, method_name="<class>",
                ))
                continue
            touched = used_fields.get(class_def.name, set())
            for fdef in class_def.fields():
                if fdef.name not in touched:
                    self.diagnostics.append(Diagnostic(
                        rule="AL301", severity=INFO,
                        message=(
                            f"field {class_def.name}.{fdef.name} is "
                            f"declared but never accessed"
                        ),
                        class_name=class_def.name, method_name="<class>",
                    ))


    # -- AL4xx: chatty-interface diagnostics (dataflow-powered) ----------------

    def _check_dataflow(self) -> None:
        traffic = self.analysis.traffic
        if traffic is None:
            return
        self._check_loop_round_trips(traffic)
        self._check_per_element_loops(traffic)
        self._check_write_only_fields(traffic)
        self._check_shared_statics(traffic)

    def _check_loop_round_trips(self, traffic) -> None:
        """AL401: read + write of the same all-remote field in a loop.

        The classic chatty accessor: ``x = get_field(o, f); ...;
        set_field(o, f, x')`` inside a loop, where every candidate owner
        of ``f`` lives on the other side of the partition — each
        iteration pays two wire crossings that hoisting would collapse
        to one pair around the loop.
        """
        for mf in self.program.iter_methods():
            if not mf.analyzed:
                continue
            key = (mf.class_name, mf.method_name)
            accessor_client = mf.class_name in traffic.pinned
            reads: Dict[str, FieldAccessFact] = {}
            writes: Dict[str, FieldAccessFact] = {}
            for fact in mf.iter_facts(FieldAccessFact):
                if fact.depth < 1:
                    continue
                candidates = self.resolver.field_candidates(
                    substitute(fact.receiver, traffic.binding_for(key)),
                    fact.field,
                )
                if not candidates:
                    continue
                remote = {
                    c for c in candidates
                    if (c in traffic.pinned) != accessor_client
                }
                if remote != candidates:
                    continue
                (writes if fact.is_write else reads)[fact.field] = fact
            for field_name in sorted(set(reads) & set(writes)):
                write = writes[field_name]
                rtts = 2.0 * traffic.site_rate(key, write)
                nbytes = rtts * ACCESS_BYTES
                self._emit(
                    mf, "AL401", WARNING,
                    f"field {field_name!r} is read and written across the "
                    f"partition boundary inside a loop (predicted "
                    f"{nbytes:.0f} B, {rtts:.0f} round trips per run); "
                    f"hoist the value and write it back once after the "
                    f"loop", write.line,
                )

    def _check_per_element_loops(self, traffic) -> None:
        """AL402: hot per-element access to a remote-majority array.

        Element-at-a-time ``array_read``/``array_write`` in a loop
        against an array class whose predicted traffic majority sits on
        the other side of the partition: each element pays a full round
        trip where one bulk transfer of the whole range would pay one.

        Only primitive-element arrays qualify.  Bulk-copying a ``ref[]``
        moves handles, not payloads — the per-object chatter survives
        the copy, so there is no bulk-transfer win to recommend.
        """
        for mf in self.program.iter_methods():
            if not mf.analyzed:
                continue
            key = (mf.class_name, mf.method_name)
            accessor_client = mf.class_name in traffic.pinned
            flagged: Set[str] = set()
            for fact in mf.iter_facts(ArrayAccessFact):
                if fact.depth < 1:
                    continue
                if fact.count not in (None, 1) or fact.count_ref is not None:
                    continue
                rate = traffic.site_rate(key, fact)
                if rate < AL402_MIN_RATE:
                    continue
                candidates = self.resolver.array_candidates(
                    substitute(fact.array, traffic.binding_for(key))
                )
                if not candidates or "ref[]" in candidates:
                    continue
                remote = []
                for array_class in sorted(candidates):
                    state = traffic.escape.arrays.get(array_class)
                    if state is None or state.total_bytes <= 0:
                        break
                    majority_client = (
                        state.client_bytes >= state.offload_bytes
                    )
                    if majority_client == accessor_client:
                        break
                    remote.append(array_class)
                else:
                    if not remote or remote[0] in flagged:
                        continue
                    flagged.add(remote[0])
                    nbytes = rate * ACCESS_BYTES
                    self._emit(
                        mf, "AL402", WARNING,
                        f"per-element access to remote array "
                        f"{remote[0]!r} in a loop (predicted {rate:.0f} "
                        f"round trips, {nbytes:.0f} B per run); read the "
                        f"range in one bulk transfer instead", fact.line,
                    )

    def _check_write_only_fields(self, traffic) -> None:
        """AL403: cross-partition traffic into a field nobody reads."""
        for (owner, field_name), state in sorted(
            traffic.escape.fields.items()
        ):
            if state.reads > 0 or state.writes <= 0:
                continue
            owner_client = owner in traffic.pinned
            remote_writers = sorted(
                cls for cls in state.writers
                if (cls in traffic.pinned) != owner_client
            )
            if not remote_writers or state.total_bytes < AL4XX_MIN_BYTES:
                continue
            self._emit_class(
                owner, "AL403",
                f"field {owner}.{field_name} is written from across the "
                f"partition boundary ({remote_writers[0]}) but never "
                f"read (predicted {state.total_bytes:.0f} B, "
                f"{state.writes:.0f} round trips per run of pure wire "
                f"waste); drop the writes or keep them local",
            )

    def _check_shared_statics(self, traffic) -> None:
        """AL404: mutable static reached from both placement clusters.

        Statics live on the client, so a static that offloadable *and*
        pinned code both touch — with at least one writer — chains both
        clusters to the client's copy; every remote toucher pays wire.
        """
        for (owner, field_name), state in sorted(
            traffic.escape.statics.items()
        ):
            if state.writes <= 0:
                continue
            accessors = state.readers | state.writers
            sides = {cls in traffic.pinned for cls in accessors}
            if len(sides) < 2 or state.total_bytes < AL4XX_MIN_BYTES:
                continue
            movable = sorted(
                cls for cls in accessors if cls not in traffic.pinned
            )
            self._emit_class(
                owner, "AL404",
                f"mutable static {owner}.{field_name} is reached from "
                f"both placement clusters (predicted "
                f"{state.total_bytes:.0f} B per run); partitioning "
                f"cannot separate {', '.join(movable[:3])} from the "
                f"client's copy — split the static or confine it to one "
                f"cluster",
            )

    def _emit_class(self, class_name: str, rule: str, message: str) -> None:
        self.diagnostics.append(Diagnostic(
            rule=rule, severity=WARNING, message=message,
            class_name=class_name, method_name="<class>",
        ))


def lint_program(analysis: StaticAnalysis) -> List[Diagnostic]:
    """Run every rule and return the sorted diagnostic list."""
    return Linter(analysis).run()


def has_errors(diagnostics: List[Diagnostic]) -> bool:
    return any(d.severity == ERROR for d in diagnostics)
