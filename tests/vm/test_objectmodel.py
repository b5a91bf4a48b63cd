"""Unit tests for the guest object model."""

import pytest

from repro.errors import (
    ConfigurationError,
    NoSuchFieldError,
    NoSuchMethodError,
)
from repro.vm.objectmodel import (
    ARRAY_HEADER_BYTES,
    ClassBuilder,
    ClassDef,
    FieldDef,
    JArray,
    JObject,
    MethodDef,
    MethodKind,
    OBJECT_HEADER_BYTES,
    SLOT_SIZES,
    array_class_name,
    next_oid,
)


class TestFieldDef:
    def test_slot_size_matches_type(self):
        assert FieldDef("x", "int").slot_size == 8
        assert FieldDef("c", "char").slot_size == 2
        assert FieldDef("b", "bool").slot_size == 1

    def test_reference_is_default_type(self):
        assert FieldDef("next").type_name == "ref"

    def test_unknown_type_rejected(self):
        with pytest.raises(ConfigurationError):
            FieldDef("x", "quaternion")

    def test_static_flag_and_default(self):
        fdef = FieldDef("count", "int", static=True, default=7)
        assert fdef.static
        assert fdef.default == 7


class TestMethodDef:
    def test_defaults_to_instance_kind(self):
        mdef = MethodDef("run")
        assert mdef.kind is MethodKind.INSTANCE
        assert not mdef.is_native
        assert not mdef.is_static

    def test_negative_cpu_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            MethodDef("run", cpu_cost=-1.0)

    def test_stateless_requires_native(self):
        with pytest.raises(ConfigurationError):
            MethodDef("run", kind=MethodKind.STATIC, stateless=True)

    def test_stateless_native_allowed(self):
        mdef = MethodDef("sin", kind=MethodKind.NATIVE, stateless=True)
        assert mdef.is_native
        assert mdef.stateless


class TestClassDef:
    def _editor_class(self):
        return (
            ClassBuilder("editor.Document")
            .field("buffer", "ref")
            .field("length", "int")
            .method("append", cpu_cost=1e-6)
            .build()
        )

    def test_instance_size_is_header_plus_slots(self):
        cls = self._editor_class()
        assert cls.instance_size == OBJECT_HEADER_BYTES + 8 + 8

    def test_static_fields_excluded_from_instance_size(self):
        cls = (
            ClassBuilder("a.B")
            .field("x", "int")
            .field("shared", "int", static=True)
            .build()
        )
        assert cls.instance_size == OBJECT_HEADER_BYTES + 8

    def test_field_lookup_errors(self):
        cls = self._editor_class()
        with pytest.raises(NoSuchFieldError):
            cls.field("missing")
        with pytest.raises(NoSuchMethodError):
            cls.method("missing")

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            ClassDef("")

    def test_native_pinning_traits(self):
        stateful = (
            ClassBuilder("ui.Screen")
            .native_method("draw")
            .build()
        )
        stateless_only = (
            ClassBuilder("util.MathHelper")
            .native_method("sin", stateless=True)
            .build()
        )
        pure = self._editor_class()
        assert stateful.has_native_methods and stateful.has_stateful_natives
        assert not stateful.offloadable
        assert stateless_only.has_native_methods
        assert not stateless_only.has_stateful_natives
        assert not stateless_only.offloadable
        assert pure.offloadable

    def test_superclass_inherits_fields_and_methods(self):
        base = (
            ClassBuilder("a.Base")
            .field("id", "int")
            .method("describe")
            .build()
        )
        derived = ClassBuilder("a.Derived").extends(base).field("extra", "int").build()
        assert derived.has_field("id")
        assert derived.has_method("describe")
        assert derived.instance_size == OBJECT_HEADER_BYTES + 16

    def test_static_storage_initialised_from_defaults(self):
        cls = (
            ClassBuilder("a.Config")
            .field("flag", "bool", static=True, default=True)
            .build()
        )
        assert cls.static_values == {"flag": True}


class TestJObject:
    def test_fields_start_at_defaults(self):
        cls = ClassBuilder("a.B").field("x", "int", default=3).field("r").build()
        obj = JObject(cls, home="client")
        assert obj.values == {"x": 3, "r": None}

    def test_oids_unique_and_increasing(self):
        assert next_oid() < next_oid()

    def test_references_lists_object_valued_fields(self):
        cls = ClassBuilder("a.B").field("left").field("right").field("n", "int").build()
        parent = JObject(cls, home="client")
        child = JObject(cls, home="client")
        parent.values["left"] = child
        parent.values["n"] = 5
        assert parent.references() == [child]

    def test_size_matches_class(self):
        cls = ClassBuilder("a.B").field("x", "int").build()
        assert JObject(cls, home="client").size_bytes == cls.instance_size


class TestJArray:
    def _array(self, element_type="int", length=100):
        cls = ClassDef(array_class_name(element_type), is_array_class=True)
        return JArray(cls, "client", element_type, length)

    def test_size_includes_header_and_elements(self):
        arr = self._array("char", 300)
        assert arr.size_bytes == ARRAY_HEADER_BYTES + 300 * SLOT_SIZES["char"]

    def test_primitive_flag(self):
        assert self._array("int").is_primitive
        assert not self._array("ref").is_primitive

    def test_negative_length_rejected(self):
        with pytest.raises(ConfigurationError):
            self._array(length=-1)

    def test_unknown_element_type_rejected(self):
        cls = ClassDef("x[]", is_array_class=True)
        with pytest.raises(ConfigurationError):
            JArray(cls, "client", "x", 1)

    def test_reference_array_traces_contents(self):
        holder_cls = ClassBuilder("a.B").build()
        child = JObject(holder_cls, home="client")
        cls = ClassDef("ref[]", is_array_class=True)
        arr = JArray(cls, "client", "ref", 2, data=[child, None])
        assert arr.references() == [child]

    def test_primitive_array_has_no_references(self):
        arr = self._array("int", 4)
        arr.data = [1, 2, 3, 4]
        assert arr.references() == []


def test_array_class_name():
    assert array_class_name("int") == "int[]"
    assert array_class_name("char") == "char[]"


class TestClassLayout:
    """The instance layout is computed once, when the class is built."""

    def test_instance_size_counts_inherited_non_static_slots(self):
        base = (ClassBuilder("a.Base").field("id", "int")
                .field("flag", "bool").field("count", "int", static=True)
                .build())
        derived = (ClassBuilder("a.Derived").extends(base)
                   .field("c", "char").field("shared", "ref", static=True)
                   .build())
        expected = OBJECT_HEADER_BYTES + sum(
            f.slot_size for f in derived.fields() if not f.static)
        assert derived.instance_size == expected == OBJECT_HEADER_BYTES + 11
        assert derived.instance_fields_size == 11

    def test_each_object_gets_its_own_values(self):
        cls = ClassBuilder("a.B").field("x", "int", default=3).field("r").build()
        first, second = JObject(cls, "client"), JObject(cls, "client")
        assert first.values is not second.values
        first.values["x"] = 9
        assert second.values == {"x": 3, "r": None}
        assert JObject(cls, "client").values == {"x": 3, "r": None}

    def test_static_fields_have_no_instance_slot(self):
        cls = (ClassBuilder("a.S").field("x", "int")
               .field("shared", "int", static=True, default=4).build())
        assert JObject(cls, "client").values == {"x": None}
