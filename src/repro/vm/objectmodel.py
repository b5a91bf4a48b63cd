"""Guest object model: classes, fields, methods, objects, and arrays.

This is the Python analogue of the class/object machinery inside the
paper's modified Chai JVM.  Guest applications define :class:`ClassDef`
instances (via :class:`ClassBuilder`) and allocate :class:`JObject` /
:class:`JArray` instances through the VM, which accounts for every byte
so that the heap, garbage collector, and offloading policies see a
realistic memory picture.
"""

from __future__ import annotations

import difflib
import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import ConfigurationError, NoSuchFieldError, NoSuchMethodError


def suggest_name(name: str, candidates: Iterable[str]) -> str:
    """A ``did you mean …?`` suffix for a failed member lookup.

    Shared by the runtime's :class:`NoSuchFieldError` /
    :class:`NoSuchMethodError` messages and the static analyzer, which
    consults the same name tables, so a typo reads the same whether the
    code ran or was only linted.  Empty when nothing is close.
    """
    matches = difflib.get_close_matches(name, list(candidates), n=1,
                                        cutoff=0.6)
    return f" (did you mean {matches[0]!r}?)" if matches else ""

#: Size in bytes of one field slot, by declared field type.  These mirror
#: typical JVM sizes (references are 8 bytes on a 64-bit heap).
SLOT_SIZES: Dict[str, int] = {
    "ref": 8,
    "int": 8,
    "long": 8,
    "float": 8,
    "double": 8,
    "bool": 1,
    "byte": 1,
    "char": 2,
    "short": 2,
}

#: Fixed per-object header charge (mark word + class pointer).
OBJECT_HEADER_BYTES = 16

#: Arrays additionally store their length and element type.
ARRAY_HEADER_BYTES = 24

_oid_counter = itertools.count(1)


def next_oid() -> int:
    """Allocate a globally unique object id.

    Object ids are unique per *process* rather than per VM; the RPC
    reference-mapping layer still maintains per-VM namespaces on top of
    them, exactly because the paper's VMs cannot interpret each other's
    references directly.
    """
    return next(_oid_counter)


class MethodKind(enum.Enum):
    """How a method executes, which determines where it may execute.

    * ``INSTANCE`` methods run on the VM that hosts the receiver object.
    * ``STATIC`` methods (pure Java, class-associated) may run on either
      VM because both VMs share the application bytecodes.
    * ``NATIVE`` methods are implemented outside the guest language and
      are pinned to the client VM unless annotated stateless and the
      stateless-native enhancement is enabled.
    """

    INSTANCE = "instance"
    STATIC = "static"
    NATIVE = "native"


@dataclass(frozen=True)
class FieldDef:
    """Declaration of one guest field."""

    name: str
    type_name: str = "ref"
    static: bool = False
    default: Any = None

    def __post_init__(self) -> None:
        if self.type_name not in SLOT_SIZES:
            raise ConfigurationError(
                f"unknown field type {self.type_name!r} for field {self.name!r}; "
                f"expected one of {sorted(SLOT_SIZES)}"
            )

    @property
    def slot_size(self) -> int:
        return SLOT_SIZES[self.type_name]


@dataclass(frozen=True)
class MethodDef:
    """Declaration of one guest method.

    ``func`` receives ``(ctx, self_obj, *args)`` where ``ctx`` is the
    :class:`~repro.vm.context.ExecutionContext`; for static and native
    methods ``self_obj`` is ``None``.  ``cpu_cost`` is reference CPU
    seconds charged on entry; data-dependent cost is added by the body
    via ``ctx.work``.
    """

    name: str
    kind: MethodKind = MethodKind.INSTANCE
    func: Optional[Callable[..., Any]] = None
    cpu_cost: float = 0.0
    #: For NATIVE methods: True when the operation is stateless /
    #: idempotent (math, string copy) and therefore eligible for the
    #: stateless-native enhancement of section 5.2.
    stateless: bool = False

    def __post_init__(self) -> None:
        if self.cpu_cost < 0:
            raise ConfigurationError(
                f"method {self.name!r} has negative cpu_cost {self.cpu_cost}"
            )
        if self.stateless and self.kind is not MethodKind.NATIVE:
            raise ConfigurationError(
                f"method {self.name!r}: only native methods carry the "
                "stateless annotation"
            )

    @property
    def is_native(self) -> bool:
        return self.kind is MethodKind.NATIVE

    @property
    def is_static(self) -> bool:
        return self.kind is MethodKind.STATIC

    def source_location(self) -> Optional[Tuple[str, int]]:
        """``(filename, first line)`` of the method body, if it has one.

        Unwraps the registration lambdas guest apps commonly use, so
        the static analyzer and diagnostics point at real source.
        Returns ``None`` for declaration-only methods and bodies
        without Python code objects (builtins, C functions).
        """
        func = self.func
        if func is None:
            return None
        code = getattr(func, "__code__", None)
        if code is None:
            return None
        return code.co_filename, code.co_firstlineno


class ClassDef:
    """A guest class: field layout, method table, and placement traits."""

    def __init__(
        self,
        name: str,
        fields: Iterable[FieldDef] = (),
        methods: Iterable[MethodDef] = (),
        superclass: Optional["ClassDef"] = None,
        is_array_class: bool = False,
        category: str = "app",
    ) -> None:
        if not name:
            raise ConfigurationError("class name must be non-empty")
        self.name = name
        self.superclass = superclass
        self.is_array_class = is_array_class
        self.category = category
        self._fields: Dict[str, FieldDef] = {}
        self._methods: Dict[str, MethodDef] = {}
        if superclass is not None:
            self._fields.update(superclass._fields)
            self._methods.update(superclass._methods)
        for fdef in fields:
            if fdef.name in self._fields and not superclass:
                raise ConfigurationError(
                    f"duplicate field {fdef.name!r} on class {name!r}"
                )
            self._fields[fdef.name] = fdef
        for mdef in methods:
            self._methods[mdef.name] = mdef
        #: ``name -> is static`` for every field, and the method table:
        #: the execution context checks a guest access or invocation
        #: with one lookup here, and only an unknown name goes through
        #: :meth:`field` / :meth:`method` for its did-you-mean error.
        #: Fixed once built, like the layout below.
        self.field_is_static: Dict[str, bool] = {
            f.name: f.static for f in self._fields.values()
        }
        self.method_table: Dict[str, MethodDef] = self._methods
        #: Static (per-class) storage; access is pinned to the client VM.
        self.static_values: Dict[str, Any] = {
            f.name: f.default for f in self._fields.values() if f.static
        }
        # The instance layout, fixed once built: every allocation copies
        # the defaults and charges the size.
        self._instance_defaults: Dict[str, Any] = {
            f.name: f.default for f in self._fields.values() if not f.static
        }
        #: Bytes of one instance's non-static field slots.
        self.instance_fields_size: int = sum(
            f.slot_size for f in self._fields.values() if not f.static
        )
        #: Heap footprint of one instance (header + field slots).
        self.instance_size: int = (
            OBJECT_HEADER_BYTES + self.instance_fields_size
        )

    # -- lookup -----------------------------------------------------------

    def field(self, name: str) -> FieldDef:
        try:
            return self._fields[name]
        except KeyError:
            hint = suggest_name(name, self._fields)
            raise NoSuchFieldError(f"{self.name}.{name}{hint}") from None

    def method(self, name: str) -> MethodDef:
        try:
            return self._methods[name]
        except KeyError:
            hint = suggest_name(name, self._methods)
            raise NoSuchMethodError(f"{self.name}.{name}{hint}") from None

    def has_field(self, name: str) -> bool:
        return name in self._fields

    def has_method(self, name: str) -> bool:
        return name in self._methods

    def fields(self) -> Iterator[FieldDef]:
        return iter(self._fields.values())

    def methods(self) -> Iterator[MethodDef]:
        return iter(self._methods.values())

    def field_names(self) -> List[str]:
        """Declared field names, in declaration order."""
        return list(self._fields)

    def method_names(self) -> List[str]:
        """Declared method names, in declaration order."""
        return list(self._methods)

    # -- placement traits --------------------------------------------------

    @property
    def has_native_methods(self) -> bool:
        return any(m.is_native for m in self._methods.values())

    @property
    def has_stateful_natives(self) -> bool:
        return any(m.is_native and not m.stateless for m in self._methods.values())

    @property
    def offloadable(self) -> bool:
        """Whether instances of this class may leave the client.

        The paper's heuristic seeds the client partition with every class
        that contains native methods; we refine that slightly by keeping
        only classes with *stateful* natives pinned, because the paper's
        own section 5.2 relaxes stateless natives.  A class whose natives
        are all stateless is still pinned under the *initial* policy; the
        distinction is applied by the partitioner which consults
        :attr:`has_native_methods` or :attr:`has_stateful_natives`
        depending on the enhancement flags.
        """
        return not self.has_native_methods

    def __repr__(self) -> str:
        return f"ClassDef({self.name!r})"


class JObject:
    """One live guest object.

    ``home`` names the VM currently hosting the object; the distributed
    runtime moves objects by rebinding ``home`` (and the heaps).  Guest
    code never touches ``home`` directly.
    """

    __slots__ = ("cls", "oid", "values", "home", "alive", "pinned")

    def __init__(self, cls: ClassDef, home: str) -> None:
        self.cls = cls
        self.oid = next_oid()
        self.values: Dict[str, Any] = cls._instance_defaults.copy()
        self.home = home
        self.alive = True
        #: Pinned objects survive GC even when locally unreachable;
        #: used for remote-export pins by the distributed GC.
        self.pinned = False

    @property
    def size_bytes(self) -> int:
        return self.cls.instance_size

    @property
    def class_name(self) -> str:
        return self.cls.name

    def references(self) -> List["JObject"]:
        """Guest objects directly reachable from this object's fields."""
        return [v for v in self.values.values() if isinstance(v, JObject)]

    def reference_slots(self) -> Iterable[Any]:
        """The values that may be references, in place (no list): the
        guest objects among them are :meth:`references`.  The collector
        and the distributed GC walk these for every object they reach."""
        return self.values.values()

    def __repr__(self) -> str:
        status = "live" if self.alive else "dead"
        return f"<{self.cls.name}#{self.oid} {status}@{self.home}>"


class JArray(JObject):
    """A primitive or reference array.

    Arrays are first-class objects in the execution graph; the paper's
    "Array" enhancement (section 5.2) allows primitive integer arrays to
    be *placed* individually instead of at class granularity, which is
    why arrays keep their own identity here rather than being folded
    into a container object.
    """

    __slots__ = ("element_type", "length", "data")

    def __init__(
        self,
        cls: ClassDef,
        home: str,
        element_type: str,
        length: int,
        data: Optional[list] = None,
    ) -> None:
        if element_type not in SLOT_SIZES:
            raise ConfigurationError(f"unknown array element type {element_type!r}")
        if length < 0:
            raise ConfigurationError("array length must be non-negative")
        super().__init__(cls, home)
        self.element_type = element_type
        self.length = length
        #: Optional materialised contents; most workloads only need the
        #: size accounting, so contents default to absent.
        self.data = data

    @property
    def size_bytes(self) -> int:
        return ARRAY_HEADER_BYTES + self.length * SLOT_SIZES[self.element_type]

    @property
    def is_primitive(self) -> bool:
        return self.element_type != "ref"

    def references(self) -> List[JObject]:
        if self.element_type != "ref" or self.data is None:
            return []
        return [v for v in self.data if isinstance(v, JObject)]

    def reference_slots(self) -> Iterable[Any]:
        if self.element_type != "ref" or self.data is None:
            return ()
        return self.data

    def __repr__(self) -> str:
        return f"<{self.element_type}[{self.length}]#{self.oid}@{self.home}>"


def array_class_name(element_type: str) -> str:
    """Canonical class name for arrays of the given element type.

    >>> array_class_name("int")
    'int[]'
    """
    return f"{element_type}[]"


class ClassBuilder:
    """Fluent helper for declaring guest classes.

    >>> cls = (ClassBuilder("editor.Document")
    ...        .field("buffer", "ref")
    ...        .field("length", "int")
    ...        .method("append", cpu_cost=1e-6)
    ...        .build())
    >>> cls.instance_size
    32
    """

    def __init__(self, name: str, category: str = "app") -> None:
        self._name = name
        self._category = category
        self._fields: List[FieldDef] = []
        self._methods: List[MethodDef] = []
        self._superclass: Optional[ClassDef] = None

    def field(
        self, name: str, type_name: str = "ref", static: bool = False, default: Any = None
    ) -> "ClassBuilder":
        self._fields.append(FieldDef(name, type_name, static=static, default=default))
        return self

    def method(
        self,
        name: str,
        func: Optional[Callable[..., Any]] = None,
        kind: MethodKind = MethodKind.INSTANCE,
        cpu_cost: float = 0.0,
        stateless: bool = False,
    ) -> "ClassBuilder":
        self._methods.append(
            MethodDef(name, kind=kind, func=func, cpu_cost=cpu_cost, stateless=stateless)
        )
        return self

    def static_method(
        self, name: str, func: Optional[Callable[..., Any]] = None, cpu_cost: float = 0.0
    ) -> "ClassBuilder":
        return self.method(name, func=func, kind=MethodKind.STATIC, cpu_cost=cpu_cost)

    def native_method(
        self,
        name: str,
        func: Optional[Callable[..., Any]] = None,
        cpu_cost: float = 0.0,
        stateless: bool = False,
    ) -> "ClassBuilder":
        return self.method(
            name, func=func, kind=MethodKind.NATIVE, cpu_cost=cpu_cost, stateless=stateless
        )

    def extends(self, superclass: ClassDef) -> "ClassBuilder":
        self._superclass = superclass
        return self

    def build(self) -> ClassDef:
        return ClassDef(
            self._name,
            fields=self._fields,
            methods=self._methods,
            superclass=self._superclass,
            category=self._category,
        )
