"""Unit tests for the JSON-safe payload encoding."""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.api import ResultStore, Runner, SweepSpec
from repro.api import serialization
from repro.api.serialization import decode, encode, payload_equal, validate_encoded
from repro.exceptions import ConfigurationError
from repro.utils.spectrum import PowerSpectrum


def roundtrip(obj):
    text = json.dumps(encode(obj), allow_nan=False)
    return decode(json.loads(text))


# A pure-Python float and array codec: the reference whose trees, JSON text
# and decoded bytes the numpy codec must reproduce exactly.
_REFERENCE_NONFINITE = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}


def _reference_encode_float(value):
    if np.isfinite(value):
        return float(value)
    if np.isnan(value):
        return {"__kind__": "float", "value": "nan"}
    return {"__kind__": "float", "value": "inf" if value > 0 else "-inf"}


def _reference_sanitize(values):
    return [
        v if not isinstance(v, float) or math.isfinite(v) else "nan" if math.isnan(v) else "inf" if v > 0 else "-inf"
        for v in values
    ]


def _reference_restore(values):
    return [_REFERENCE_NONFINITE[v] if isinstance(v, str) else v for v in values]


def _reference_encode_ndarray(array):
    node = {"__kind__": "ndarray", "dtype": str(array.dtype), "shape": list(array.shape)}
    flat = array.ravel()
    if np.issubdtype(array.dtype, np.complexfloating):
        node["real"] = _reference_sanitize(flat.real.tolist())
        node["imag"] = _reference_sanitize(flat.imag.tolist())
    else:
        node["data"] = _reference_sanitize(flat.tolist())
    return node


def _reference_decode_ndarray(node):
    dtype = np.dtype(node["dtype"])
    shape = tuple(node["shape"])
    if "real" in node:
        flat = np.asarray(_reference_restore(node["real"]), dtype=float) + 1j * np.asarray(
            _reference_restore(node["imag"]), dtype=float
        )
    else:
        flat = np.asarray(_reference_restore(node["data"]))
    return flat.astype(dtype).reshape(shape)


_INEXACT_DTYPES = ("float16", "float32", "float64", "complex64", "complex128")
_EXACT_DTYPES = ("int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64", "bool")


@st.composite
def _arrays(draw, dtype_names, non_finite=False):
    """Arrays of any shape up to 3-d, empty and 0-d included, either byte order, maybe strided."""
    dtype = np.dtype(draw(st.sampled_from(dtype_names)))
    if draw(st.booleans()):
        dtype = dtype.newbyteorder(">")
    if dtype.kind in "fc":
        elements = hnp.from_dtype(dtype, allow_nan=non_finite, allow_infinity=non_finite)
    else:
        elements = hnp.from_dtype(dtype)
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5))
    array = draw(hnp.arrays(dtype, shape, elements=elements))
    if array.ndim and draw(st.booleans()):
        array = array.T[::2]
    return array


def _assert_codec_matches_reference(array):
    node = encode(array)
    reference = _reference_encode_ndarray(array)
    assert node == reference
    text = json.dumps(node, allow_nan=False)
    assert text == json.dumps(reference, allow_nan=False)
    # The reference decode warns where it casts nan or out-of-range values.
    with np.errstate(invalid="ignore"):
        decoded = decode(json.loads(text))
        expected = _reference_decode_ndarray(json.loads(text))
    assert decoded.dtype == expected.dtype
    assert decoded.shape == expected.shape
    assert decoded.tobytes() == expected.tobytes()


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


class TestCodecMatchesReference:
    @given(_arrays(_INEXACT_DTYPES))
    @example(np.array([1.5, -0.0, 0.0, 1e-310]))
    def test_finite_inexact_arrays(self, array):
        _assert_codec_matches_reference(array)

    @given(_arrays(_INEXACT_DTYPES, non_finite=True))
    @example(np.array([1.5, np.nan, np.inf, -np.inf, -0.0]))
    @example(np.array([complex(np.nan, 1.0), complex(1.0, np.inf), complex(-np.inf, -0.0)]))
    @example(np.array([np.inf, np.nan], dtype=">f2"))
    def test_inexact_arrays_with_non_finite_elements(self, array):
        _assert_codec_matches_reference(array)

    @given(_arrays(_EXACT_DTYPES))
    @example(np.array([2**63, 2**64 - 1, 0, 2**63 + 1], dtype=np.uint64))
    @example(np.array([2**63 + 1], dtype=">u8"))
    @example(np.array(True))
    def test_integer_and_bool_arrays(self, array):
        _assert_codec_matches_reference(array)

    @pytest.mark.parametrize("offset", [0, 5])
    def test_store_lines_equal_the_reference_encoding(self, tmp_path, monkeypatch, offset):
        specs = [
            spec
            for name, base in (("fig13", 13), ("fig17", 17), ("fig14", 14))
            for spec in SweepSpec(experiment=name, engine="batch", seed=base + offset, replicates=2).expand()
        ]
        store = ResultStore(tmp_path, shard="lines.jsonl")
        results = Runner().run_batch(specs, store=store)
        lines = store.shard_path.read_text(encoding="utf-8").splitlines()
        monkeypatch.setattr(serialization, "_encode_ndarray", _reference_encode_ndarray)
        monkeypatch.setattr(serialization, "_encode_float", _reference_encode_float)
        assert lines == [json.dumps(result.to_dict(), allow_nan=False, separators=(",", ":")) for result in results]


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


def _ndarray(**fields):
    """A well-formed two-element ndarray node with *fields* replaced."""
    node = {"__kind__": "ndarray", "dtype": "float64", "shape": [2], "data": [1.0, "nan"]}
    if "real" in fields or "imag" in fields:
        node = {"__kind__": "ndarray", "dtype": "complex128", "shape": [2], "real": [1.0, 2.0], "imag": [0.0, 0.0]}
    node.update(fields)
    return node


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
            (_ndarray(dtype="notatype"), "unparseable dtype 'notatype'"),
            (_ndarray(shape=[2, -1]), "shape [2, -1] is not a list of non-negative ints"),
            (_ndarray(shape=[3]), "data is not a list of 3 elements, the size of shape [3]"),
            (_ndarray(data=[[1.0], 2.0]), "data holds a list, not a number"),
            (_ndarray(data=[None, 2.0]), "data holds a NoneType, not a number"),
            (_ndarray(data=["bogus", "nan"]), "data holds 'bogus', neither a number nor one of"),
            (_ndarray(imag=["inf", "Inf"]), "imag holds 'Inf', neither a number nor one of"),
        ],
        ids=[
            "python-tuple",
            "int-key",
            "float-marker",
            "bytes",
            "ndarray-shape",
            "tuple",
            "map",
            "dataclass",
            "ndarray-dtype",
            "ndarray-negative-extent",
            "ndarray-size",
            "ndarray-nested-list",
            "ndarray-null",
            "ndarray-unknown-marker",
            "ndarray-complex-marker",
        ],
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
            (_ndarray(data=[1.0, "bogus"]), "ndarray node (dtype 'float64', shape [2]) holds 'bogus'"),
            (_ndarray(dtype="notatype"), "ndarray node has an unparseable dtype 'notatype'"),
        ],
        ids=["missing-dataclass", "not-a-dataclass", "unknown-kind", "foreign-type", "unknown-marker", "bad-dtype"],
    )
    def test_bad_node_raises_configuration_error(self, node, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            decode(node)
