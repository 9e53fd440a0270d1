"""Unit tests for the JSON-safe payload encoding."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np
import pytest

from repro.api.serialization import decode, encode, payload_equal, validate_encoded
from repro.exceptions import ConfigurationError
from repro.utils.spectrum import PowerSpectrum


def roundtrip(obj):
    text = json.dumps(encode(obj), allow_nan=False)
    return decode(json.loads(text))


class TestScalars:
    def test_plain_values_pass_through(self):
        for value in (None, True, False, 0, -3, "text", 2.5):
            assert roundtrip(value) == value

    def test_non_finite_floats(self):
        assert np.isnan(roundtrip(float("nan")))
        assert roundtrip(float("inf")) == np.inf
        assert roundtrip(float("-inf")) == -np.inf

    def test_numpy_scalars_become_python(self):
        assert roundtrip(np.float64(1.5)) == 1.5
        assert roundtrip(np.int64(7)) == 7
        assert roundtrip(np.bool_(True)) is True

    def test_bytes(self):
        assert roundtrip(b"\x00\xffpayload") == b"\x00\xffpayload"


class TestArrays:
    def test_float_array_exact(self):
        array = np.linspace(-90.0, -50.0, 17)
        restored = roundtrip(array)
        assert restored.dtype == array.dtype
        assert np.array_equal(restored, array)

    def test_array_with_nan_and_inf(self):
        array = np.array([1.0, np.nan, np.inf, -np.inf])
        restored = roundtrip(array)
        assert np.array_equal(restored, array, equal_nan=True)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_non_finite_elements_are_strings_on_the_wire(self, dtype):
        node = encode(np.array([1.5, np.nan, np.inf, -np.inf, -0.0], dtype=dtype))
        assert json.dumps(node["data"]) == '[1.5, "nan", "inf", "-inf", -0.0]'

    def test_complex_parts_carry_non_finite_strings_on_the_wire(self):
        node = encode(np.array([complex(np.nan, np.inf), complex(-np.inf, 2.0)]))
        assert json.dumps([node["real"], node["imag"]]) == '[["nan", "-inf"], ["inf", 2.0]]'

    def test_int_and_bool_dtypes_preserved(self):
        for array in (np.arange(5, dtype=np.int64), np.array([True, False]), np.arange(4, dtype=np.uint8)):
            restored = roundtrip(array)
            assert restored.dtype == array.dtype
            assert np.array_equal(restored, array)

    def test_complex_array(self):
        array = np.array([1 + 2j, -3.5j, np.nan + 1j])
        restored = roundtrip(array)
        assert restored.dtype == array.dtype
        assert np.array_equal(restored, array, equal_nan=True)

    def test_multidimensional_shape(self):
        array = np.arange(12.0).reshape(3, 4)
        assert roundtrip(array).shape == (3, 4)


class TestContainers:
    def test_tuple_stays_tuple(self):
        assert roundtrip((1, 2.0, "x")) == (1, 2.0, "x")
        assert isinstance(roundtrip((1,)), tuple)

    def test_float_keyed_dict(self):
        mapping = {2.0: "a", 11.0: "b"}
        assert roundtrip(mapping) == mapping

    def test_tuple_keyed_dict(self):
        mapping = {(4.0, 1.0): "curve", (20.0, 3.0): "other"}
        assert roundtrip(mapping) == mapping

    def test_nested_payload_shape(self):
        payload = {"cdf": (np.array([1.0, 2.0]), np.array([0.5, 1.0])), "by_rate": {2.0: np.arange(3)}}
        restored = roundtrip(payload)
        assert payload_equal(restored, payload)

    def test_dict_with_literal_kind_key_roundtrips(self):
        # A real "__kind__" key must not collide with the tag sentinel.
        for mapping in ({"__kind__": "float"}, {"__kind__": "x", "other": 1}):
            assert roundtrip(mapping) == mapping


class TestDataclasses:
    def test_repro_dataclass_roundtrip(self):
        spectrum = PowerSpectrum(frequencies_hz=np.array([-1.0, 0.0, 1.0]), psd=np.array([0.1, 0.9, 0.1]))
        restored = roundtrip(spectrum)
        assert isinstance(restored, PowerSpectrum)
        assert payload_equal(restored, spectrum)

    def test_foreign_dataclass_is_rejected_on_decode(self):
        node = {"__kind__": "dataclass", "type": "os.path.Foo", "fields": {}}
        with pytest.raises(ConfigurationError):
            decode(node)

    def test_unserializable_object_raises(self):
        with pytest.raises(ConfigurationError):
            encode(object())

    def test_local_dataclass_encodes_but_cannot_decode(self):
        @dataclass(frozen=True)
        class Local:
            x: int

        node = encode(Local(x=1))
        with pytest.raises(ConfigurationError):
            decode(node)


class TestPayloadEqual:
    def test_nan_arrays_compare_equal(self):
        assert payload_equal(np.array([np.nan, 1.0]), np.array([np.nan, 1.0]))

    def test_dtype_mismatch_not_equal(self):
        assert not payload_equal(np.array([1.0]), np.array([1]))

    def test_tuple_vs_list_not_equal(self):
        assert not payload_equal((1, 2), [1, 2])

    def test_different_dataclass_types_not_equal(self):
        left = PowerSpectrum(frequencies_hz=np.array([0.0]), psd=np.array([1.0]))
        assert not payload_equal(left, {"frequencies_hz": np.array([0.0])})

    def test_nan_floats_compare_equal(self):
        assert payload_equal(float("nan"), float("nan"))
        assert not payload_equal(float("nan"), 1.0)


class TestValidateEncoded:
    def test_valid_tree_passes(self):
        payload = {"x": (np.arange(3), {2.0: np.nan}), "blob": b"\x01"}
        validate_encoded(encode(payload))

    def test_bad_kind_fails(self):
        with pytest.raises(ConfigurationError, match="unknown node kind"):
            validate_encoded({"__kind__": "mystery"})

    def test_ndarray_missing_data_fails(self):
        with pytest.raises(ConfigurationError, match="ndarray"):
            validate_encoded({"__kind__": "ndarray", "dtype": "float64", "shape": [1]})

    def test_map_with_bad_pair_fails(self):
        with pytest.raises(ConfigurationError, match="map entry"):
            validate_encoded({"__kind__": "map", "items": [[1, 2, 3]]})

    def test_dataclass_outside_repro_fails(self):
        with pytest.raises(ConfigurationError, match="dataclass"):
            validate_encoded({"__kind__": "dataclass", "type": "os.Foo", "fields": {}})

    @pytest.mark.parametrize(
        ("node", "message"),
        [
            ((1, 2), "unexpected type tuple"),
            ({1: "x"}, "non-string key 1 outside a tagged map node"),
            ({"__kind__": "float", "value": "nope"}, "bad non-finite float marker 'nope'"),
            ({"__kind__": "bytes", "hex": 5}, "bytes node missing hex string"),
            ({"__kind__": "ndarray", "dtype": "float64", "data": []}, "ndarray node missing dtype/shape"),
            ({"__kind__": "tuple"}, "tuple node missing items list"),
            ({"__kind__": "map", "items": {}}, "map node missing items list"),
            ({"__kind__": "dataclass", "type": "repro.x.Y", "fields": []}, "dataclass node missing fields mapping"),
        ],
        ids=["python-tuple", "int-key", "float-marker", "bytes", "ndarray-shape", "tuple", "map", "dataclass"],
    )
    def test_malformed_node_fails_naming_the_problem(self, node, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            validate_encoded(node)

    def test_nested_violation_names_its_path(self):
        tree = {"curve": [0.5, {"__kind__": "tuple", "items": [1, {"__kind__": "bytes"}]}]}
        with pytest.raises(ConfigurationError, match=re.escape("at payload.curve[1][1]: bytes node")):
            validate_encoded(tree)


class TestDecodeErrors:
    @pytest.mark.parametrize(
        ("node", "message"),
        [
            ({"__kind__": "dataclass", "type": "repro.nowhere.Missing", "fields": {}}, "cannot resolve"),
            ({"__kind__": "dataclass", "type": "repro.api.serialization.encode", "fields": {}}, "is not a dataclass"),
            ({"__kind__": "mystery"}, "unknown serialized node kind 'mystery'"),
            ({1, 2}, "cannot decode node of type set"),
        ],
        ids=["missing-dataclass", "not-a-dataclass", "unknown-kind", "foreign-type"],
    )
    def test_bad_node_raises_configuration_error(self, node, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            decode(node)
