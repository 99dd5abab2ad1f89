"""Unit tests for the field type system."""

import pytest

from repro.msg.fields import (
    ArrayType,
    ComplexType,
    FieldTypeError,
    MapType,
    PRIMITIVE_TYPES,
    PrimitiveType,
    StringType,
    parse_field_type,
)


class TestPrimitiveTypes:
    def test_all_ros_builtins_present(self):
        expected = {
            "bool", "int8", "uint8", "byte", "char", "int16", "uint16",
            "int32", "uint32", "int64", "uint64", "float32", "float64",
            "time", "duration",
        }
        assert expected == set(PRIMITIVE_TYPES)

    @pytest.mark.parametrize(
        "name,size",
        [("bool", 1), ("uint8", 1), ("int16", 2), ("uint32", 4),
         ("int64", 8), ("float32", 4), ("float64", 8), ("time", 8),
         ("duration", 8)],
    )
    def test_wire_sizes(self, name, size):
        assert PRIMITIVE_TYPES[name].size == size

    def test_integral_ranges(self):
        assert PRIMITIVE_TYPES["int8"].range() == (-128, 127)
        assert PRIMITIVE_TYPES["uint16"].range() == (0, 65535)
        assert PRIMITIVE_TYPES["uint64"].range() == (0, 2**64 - 1)
        assert PRIMITIVE_TYPES["bool"].range() == (0, 1)

    def test_float_has_no_range(self):
        assert PRIMITIVE_TYPES["float32"].range() is None

    def test_time_is_time(self):
        assert PRIMITIVE_TYPES["time"].is_time
        assert not PRIMITIVE_TYPES["uint32"].is_time

    def test_defaults(self):
        assert PRIMITIVE_TYPES["uint32"].default_value() == 0
        assert PRIMITIVE_TYPES["float64"].default_value() == 0.0
        assert PRIMITIVE_TYPES["bool"].default_value() is False
        assert PRIMITIVE_TYPES["time"].default_value() == (0, 0)


class TestParseFieldType:
    def test_primitive(self):
        assert parse_field_type("uint32") is PRIMITIVE_TYPES["uint32"]

    def test_string(self):
        ftype = parse_field_type("string")
        assert isinstance(ftype, StringType)
        assert repr(ftype) == "StringType('string')"

    def test_variable_array(self):
        ftype = parse_field_type("uint8[]")
        assert isinstance(ftype, ArrayType)
        assert ftype.length is None
        assert ftype.element_type.name == "uint8"
        assert not ftype.is_fixed_size()

    def test_fixed_array(self):
        ftype = parse_field_type("float64[9]")
        assert isinstance(ftype, ArrayType)
        assert ftype.length == 9
        assert ftype.is_fixed_size()
        assert ftype.default_value() == [0.0] * 9

    def test_array_of_complex(self):
        ftype = parse_field_type("geometry_msgs/Point32[]")
        element = ftype.element_type
        assert isinstance(element, ComplexType)
        assert element.name == "geometry_msgs/Point32"
        # Only the registry can size a nested type; unresolved, it is
        # variable-size and has no default of its own.
        assert not element.is_fixed_size()
        assert element.default_value() is None

    def test_header_alias(self):
        assert parse_field_type("Header", "sensor_msgs").name == "std_msgs/Header"

    def test_unqualified_uses_package_context(self):
        assert parse_field_type("Point32", "geometry_msgs").name == (
            "geometry_msgs/Point32"
        )

    def test_unqualified_without_context_rejected(self):
        with pytest.raises(FieldTypeError):
            parse_field_type("Point32")

    def test_map_type(self):
        ftype = parse_field_type("map<string,uint32>")
        assert isinstance(ftype, MapType)
        assert isinstance(ftype.key_type, StringType)
        assert ftype.value_type.name == "uint32"
        assert ftype.name == "map<string,uint32>"
        assert not ftype.is_fixed_size()
        assert ftype.default_value() == {}

    def test_map_with_complex_value(self):
        ftype = parse_field_type("map<uint32,geometry_msgs/Point>")
        assert ftype.value_type.name == "geometry_msgs/Point"

    def test_map_complex_key_rejected(self):
        with pytest.raises(FieldTypeError):
            parse_field_type("map<geometry_msgs/Point,uint32>")

    @pytest.mark.parametrize("bad", ["", "uint8[", "uint8[-1]", "uint8[x]",
                                     "map<uint32>", "map<a,b"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(FieldTypeError):
            parse_field_type(bad, "pkg")

    def test_array_name_roundtrip(self):
        assert parse_field_type("uint8[]").name == "uint8[]"
        assert parse_field_type("uint8[16]", "p").name == "uint8[16]"

    def test_equality_and_hash(self):
        a = parse_field_type("uint8[]")
        b = parse_field_type("uint8[]")
        assert a == b
        assert hash(a) == hash(b)
        assert parse_field_type("uint8") != parse_field_type("int8")
