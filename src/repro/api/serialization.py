"""JSON-safe encoding of experiment payloads.

Every experiment driver returns a frozen dataclass whose fields mix numpy
arrays, nested dataclasses, tuples and dicts keyed by floats or tuples —
none of which survive ``json.dumps`` directly.  This module defines one
reversible encoding used by the :class:`repro.api.result.Result` envelope:

* scalars stay plain JSON values (non-finite floats become tagged nodes),
* ``np.ndarray`` → ``{"__kind__": "ndarray", "dtype": ..., "shape": ...,
  "data": ...}`` with complex arrays split into real/imaginary parts,
* tuples and non-string-keyed dicts become tagged nodes so the decoded
  object compares equal to the original,
* dataclasses → ``{"__kind__": "dataclass", "type": "module.QualName",
  "fields": {...}}``, re-imported on decode (``repro.*`` modules only).

Arrays carry the envelope's bulk, so numpy does their per-element work:
``tolist()`` on encode and ``np.asarray`` on decode.  A non-finite element
is written as one of the strings ``"nan"``, ``"inf"`` and ``"-inf"``
(strict JSON has no such numbers).  Only a float or complex array that
fails ``np.isfinite(...).all()`` takes the Python pass that writes these
markers, and only a list that holds one takes the pass that reads them
back; any other string is an error.  ``str(dtype)``, ``np.dtype(name)``
and dataclass lookups are memoised per process.

:func:`payload_equal` is the matching deep-equality predicate (numpy-aware,
NaN-tolerant) and :func:`validate_encoded` the structural validator every
read applies: for an array node it also checks the dtype, the shape and
that each element list is flat and of the shape's size.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import math
from typing import Any

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["canonical_json", "encode", "decode", "payload_equal", "validate_encoded"]

_KIND = "__kind__"

#: Non-finite floats are not valid strict JSON; encode them as strings.
_NONFINITE = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}


def _encode_float(value: float) -> Any:
    if math.isfinite(value):
        return float(value)
    if math.isnan(value):
        return {_KIND: "float", "value": "nan"}
    return {_KIND: "float", "value": "inf" if value > 0 else "-inf"}


def _sanitize_numbers(values: list) -> list:
    """Replace non-finite floats in a flat list with their string names.

    The lists come from ``ndarray.tolist()``, so their floats are Python
    floats: ``math`` tests one without numpy's per-call cost.
    """
    return [
        v if not isinstance(v, float) or math.isfinite(v) else "nan" if math.isnan(v) else "inf" if v > 0 else "-inf"
        for v in values
    ]


def _restore_numbers(values: list, node: dict) -> list:
    """Invert :func:`_sanitize_numbers`; any other string is an error naming *node*."""
    try:
        return [_NONFINITE[v] if isinstance(v, str) else v for v in values]
    except KeyError as exc:
        raise ConfigurationError(
            f"ndarray node (dtype {node['dtype']!r}, shape {node['shape']!r}) holds {exc.args[0]!r}, "
            f"which is neither a number nor one of {sorted(_NONFINITE)}"
        ) from None


@functools.cache
def _dtype_name(dtype: np.dtype) -> str:
    return str(dtype)


@functools.cache
def _dtype(name: str) -> np.dtype:
    try:
        return np.dtype(name)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"ndarray node has an unparseable dtype {name!r}") from exc


def _encode_ndarray(array: np.ndarray) -> dict:
    node: dict[str, Any] = {
        _KIND: "ndarray",
        "dtype": _dtype_name(array.dtype),
        "shape": list(array.shape),
    }
    flat = array.ravel()
    kind = array.dtype.kind
    parts = {"real": flat.real, "imag": flat.imag} if kind == "c" else {"data": flat}
    # Integer and bool elements are always finite: only a float or complex
    # array in which numpy finds a non-finite element takes the Python pass.
    finite = kind not in "fc" or bool(np.isfinite(flat).all())
    for name, part in parts.items():
        node[name] = part.tolist() if finite else _sanitize_numbers(part.tolist())
    return node


def _flat_array(node: dict, part: str) -> np.ndarray:
    """The element list *part* of an ndarray node as a flat array, markers restored."""
    values = node[part]
    flat = np.asarray(values)
    # numpy turns a list that holds any string into a string array.
    if flat.dtype.kind == "U":
        flat = np.asarray(_restore_numbers(values, node))
    return flat


def _decode_ndarray(node: dict) -> np.ndarray:
    dtype = _dtype(node["dtype"])
    shape = tuple(node["shape"])
    if "real" in node:
        real, imag = (_flat_array(node, part).astype(float, copy=False) for part in ("real", "imag"))
        flat = real + 1j * imag
    else:
        flat = _flat_array(node, "data")
    return flat.astype(dtype, copy=False).reshape(shape)


def _dataclass_path(obj: Any) -> str:
    cls = type(obj)
    return f"{cls.__module__}.{cls.__qualname__}"


@functools.cache
def _resolve_dataclass(path: str) -> type:
    # A refusal raises, and functools.cache keeps only returned values.
    module_name, _, qualname = path.rpartition(".")
    if not module_name.startswith("repro"):
        raise ConfigurationError(f"refusing to decode dataclass outside the repro package: {path!r}")
    try:
        target: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            target = getattr(target, part)
    except (ImportError, AttributeError) as exc:
        raise ConfigurationError(f"cannot resolve serialized dataclass {path!r}") from exc
    if not dataclasses.is_dataclass(target):
        raise ConfigurationError(f"serialized type {path!r} is not a dataclass")
    return target


def encode(obj: Any) -> Any:
    """Encode *obj* into a strict-JSON-compatible tree."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return _encode_float(obj)
    if isinstance(obj, (np.bool_, np.integer, np.floating)):
        return encode(obj.item())
    if isinstance(obj, bytes):
        return {_KIND: "bytes", "hex": obj.hex()}
    if isinstance(obj, np.ndarray):
        return _encode_ndarray(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            _KIND: "dataclass",
            "type": _dataclass_path(obj),
            "fields": {f.name: encode(getattr(obj, f.name)) for f in dataclasses.fields(obj)},
        }
    if isinstance(obj, tuple):
        return {_KIND: "tuple", "items": [encode(item) for item in obj]}
    if isinstance(obj, list):
        return [encode(item) for item in obj]
    if isinstance(obj, dict):
        # A literal "__kind__" key would collide with the tag sentinel on
        # decode, so such dicts take the tagged-map form too.
        if _KIND not in obj and all(isinstance(key, str) for key in obj):
            return {key: encode(value) for key, value in obj.items()}
        return {_KIND: "map", "items": [[encode(key), encode(value)] for key, value in obj.items()]}
    raise ConfigurationError(f"cannot serialize object of type {type(obj).__name__}")


def canonical_json(obj: Any) -> str:
    """One canonical JSON string per value: encoded, sorted keys, no whitespace.

    The campaign layer hashes this form to derive per-spec seeds and result
    identities, so it must not depend on dict insertion order or formatting.
    """
    return json.dumps(encode(obj), sort_keys=True, separators=(",", ":"), allow_nan=False)


def decode(node: Any) -> Any:
    """Invert :func:`encode`."""
    if node is None or isinstance(node, (bool, int, float, str)):
        return node
    if isinstance(node, list):
        return [decode(item) for item in node]
    if isinstance(node, dict):
        kind = node.get(_KIND)
        if kind is None:
            return {key: decode(value) for key, value in node.items()}
        if kind == "float":
            return _NONFINITE[node["value"]]
        if kind == "bytes":
            return bytes.fromhex(node["hex"])
        if kind == "ndarray":
            return _decode_ndarray(node)
        if kind == "tuple":
            return tuple(decode(item) for item in node["items"])
        if kind == "map":
            return {_freeze(decode(key)): decode(value) for key, value in node["items"]}
        if kind == "dataclass":
            cls = _resolve_dataclass(node["type"])
            return cls(**{name: decode(value) for name, value in node["fields"].items()})
        raise ConfigurationError(f"unknown serialized node kind {kind!r}")
    raise ConfigurationError(f"cannot decode node of type {type(node).__name__}")


def _freeze(key: Any) -> Any:
    """Make a decoded map key hashable (lists inside keys become tuples)."""
    if isinstance(key, list):
        return tuple(_freeze(item) for item in key)
    return key


def payload_equal(left: Any, right: Any) -> bool:
    """Deep equality across dataclasses, dicts, sequences and numpy arrays.

    Floats compare exactly (the JSON round trip is value-preserving) except
    that NaNs compare equal to NaNs, so serialized results with undefined
    samples still round-trip to "the same payload".
    """
    if left is None or right is None:
        return left is None and right is None
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        if not isinstance(left, np.ndarray) or not isinstance(right, np.ndarray):
            return False
        if left.dtype != right.dtype or left.shape != right.shape:
            return False
        if np.issubdtype(left.dtype, np.inexact):
            return bool(np.array_equal(left, right, equal_nan=True))
        return bool(np.array_equal(left, right))
    if dataclasses.is_dataclass(left) and not isinstance(left, type):
        if type(left) is not type(right):
            return False
        return all(
            payload_equal(getattr(left, f.name), getattr(right, f.name)) for f in dataclasses.fields(left)
        )
    if isinstance(left, dict):
        if not isinstance(right, dict) or set(left) != set(right):
            return False
        return all(payload_equal(value, right[key]) for key, value in left.items())
    if isinstance(left, (list, tuple)):
        if type(left) is not type(right) or len(left) != len(right):
            return False
        return all(payload_equal(a, b) for a, b in zip(left, right, strict=True))
    if isinstance(left, float) and isinstance(right, float):
        return left == right or (np.isnan(left) and np.isnan(right))
    return bool(left == right)


#: The Python types an ndarray node's element lists may hold: JSON numbers
#: and booleans, and the non-finite marker strings.
_ELEMENT_TYPES = frozenset({int, float, bool, str})

#: A node's path inside :func:`validate_encoded`: the root's name, or
#: ``(parent path, step format, label)``.  Formatted only when a check fails.
_Path = str | tuple


def _render(path: _Path) -> str:
    steps = []
    while isinstance(path, tuple):
        path, step, label = path
        steps.append(step.format(label))
    return path + "".join(reversed(steps))


def _fail(path: _Path, message: str) -> None:
    raise ConfigurationError(f"invalid serialized payload at {_render(path)}: {message}")


def _validate_ndarray(node: dict, path: _Path) -> None:
    dtype, shape = node.get("dtype"), node.get("shape")
    if not isinstance(dtype, str) or not isinstance(shape, list):
        _fail(path, "ndarray node missing dtype/shape")
    if ("data" in node) == ("real" in node):
        _fail(path, "ndarray node must carry exactly one of data or real/imag")
    try:
        _dtype(dtype)
    except ConfigurationError as exc:
        _fail(path, str(exc))
    if not all(type(extent) is int and extent >= 0 for extent in shape):
        _fail(path, f"ndarray shape {shape!r} is not a list of non-negative ints")
    size = math.prod(shape)
    for part in ("real", "imag") if "real" in node else ("data",):
        values = node.get(part)
        if not isinstance(values, list) or len(values) != size:
            _fail(path, f"ndarray {part} is not a list of {size} elements, the size of shape {shape!r}")
        try:
            # sum() adds numbers and booleans at C speed and raises on any
            # other element: a nested list or mapping, None or a string.
            sum(values)
        except (TypeError, OverflowError):
            _validate_elements(values, part, path)


def _validate_elements(values: list, part: str, path: _Path) -> None:
    """Check, element by element, that *values* holds only numbers and marker strings."""
    types = set(map(type, values))
    if not types <= _ELEMENT_TYPES:
        _fail(path, f"ndarray {part} holds a {min(t.__name__ for t in types - _ELEMENT_TYPES)}, not a number")
    unknown = sorted({value for value in values if type(value) is str} - _NONFINITE.keys())
    if unknown:
        _fail(path, f"ndarray {part} holds {unknown[0]!r}, neither a number nor one of {sorted(_NONFINITE)}")


def validate_encoded(node: Any, *, path: str = "payload") -> None:
    """Check that *node* is a well-formed :func:`encode` tree.

    Raises :class:`~repro.exceptions.ConfigurationError` naming the offending
    path on the first structural violation; returns ``None`` when valid.
    """
    _validate(node, path)


def _validate(node: Any, path: _Path) -> None:
    if node is None or isinstance(node, (bool, int, float, str)):
        return
    if isinstance(node, list):
        for index, item in enumerate(node):
            _validate(item, (path, "[{}]", index))
        return
    if not isinstance(node, dict):
        _fail(path, f"unexpected type {type(node).__name__}")
    kind = node.get(_KIND)
    if kind is None:
        for key, value in node.items():
            if not isinstance(key, str):
                _fail(path, f"non-string key {key!r} outside a tagged map node")
            _validate(value, (path, ".{}", key))
        return
    if kind == "float":
        if node.get("value") not in _NONFINITE:
            _fail(path, f"bad non-finite float marker {node.get('value')!r}")
    elif kind == "bytes":
        if not isinstance(node.get("hex"), str):
            _fail(path, "bytes node missing hex string")
    elif kind == "ndarray":
        _validate_ndarray(node, path)
    elif kind == "tuple":
        if not isinstance(node.get("items"), list):
            _fail(path, "tuple node missing items list")
        for index, item in enumerate(node["items"]):
            _validate(item, (path, "[{}]", index))
    elif kind == "map":
        if not isinstance(node.get("items"), list):
            _fail(path, "map node missing items list")
        for index, pair in enumerate(node["items"]):
            if not isinstance(pair, list) or len(pair) != 2:
                _fail(path, f"map entry {index} is not a [key, value] pair")
            _validate(pair[0], (path, "<key {}>", index))
            _validate(pair[1], (path, "[{}]", index))
    elif kind == "dataclass":
        if not isinstance(node.get("type"), str) or not node["type"].startswith("repro"):
            _fail(path, f"dataclass node with unexpected type {node.get('type')!r}")
        if not isinstance(node.get("fields"), dict):
            _fail(path, "dataclass node missing fields mapping")
        for name, value in node["fields"].items():
            _validate(value, (path, ".{}", name))
    else:
        _fail(path, f"unknown node kind {kind!r}")
