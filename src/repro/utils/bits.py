"""Bit-level helpers shared by every PHY implementation.

All functions operate on numpy ``uint8`` arrays whose elements are 0 or 1.
Unless stated otherwise bit order is *LSB first* within each byte, which is
the transmission order used by Bluetooth LE, 802.11 and 802.15.4.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "bytes_to_bits",
    "bits_to_bytes",
    "int_to_bits",
    "bits_to_int",
    "as_bit_array",
]


def as_bit_array(bits: Iterable[int] | np.ndarray) -> np.ndarray:
    """Coerce *bits* into a ``uint8`` numpy array of 0/1 values.

    Raises
    ------
    ValueError
        If any element is not 0 or 1.
    """
    arr = np.asarray(list(bits) if not isinstance(bits, np.ndarray) else bits)
    arr = arr.astype(np.uint8, copy=False)
    if arr.size and not np.all((arr == 0) | (arr == 1)):
        raise ValueError("bit arrays may only contain 0 and 1")
    return arr.ravel()


def bytes_to_bits(data: bytes | bytearray | Sequence[int], *, msb_first: bool = False) -> np.ndarray:
    """Expand *data* into a bit array.

    Parameters
    ----------
    data:
        Bytes-like object to expand.
    msb_first:
        When ``True`` the most-significant bit of every byte comes first.
        The default (``False``) matches the LSB-first transmission order of
        BLE and 802.11.
    """
    raw = np.frombuffer(bytes(data), dtype=np.uint8)
    if raw.size == 0:
        return np.zeros(0, dtype=np.uint8)
    bits = np.unpackbits(raw.reshape(-1, 1), axis=1)
    if not msb_first:
        bits = bits[:, ::-1]
    return bits.reshape(-1).astype(np.uint8)


def bits_to_bytes(bits: Iterable[int] | np.ndarray, *, msb_first: bool = False) -> bytes:
    """Pack a bit array back into bytes.  Inverse of :func:`bytes_to_bits`.

    The bit count must be a multiple of eight.
    """
    arr = as_bit_array(bits)
    if arr.size % 8 != 0:
        raise ValueError(f"bit count must be a multiple of 8, got {arr.size}")
    grouped = arr.reshape(-1, 8)
    if not msb_first:
        grouped = grouped[:, ::-1]
    return np.packbits(grouped, axis=1).reshape(-1).tobytes()


def int_to_bits(value: int, width: int, *, msb_first: bool = False) -> np.ndarray:
    """Convert an integer to a fixed-width bit array.

    Parameters
    ----------
    value:
        Non-negative integer to convert.
    width:
        Number of bits in the result.  ``value`` must fit in *width* bits.
    msb_first:
        Output ordering; default is LSB first.
    """
    if value < 0:
        raise ValueError("value must be non-negative")
    if width < 0:
        raise ValueError("width must be non-negative")
    if value >> width:
        raise ValueError(f"value {value} does not fit in {width} bits")
    bits = np.array([(value >> i) & 1 for i in range(width)], dtype=np.uint8)
    if msb_first:
        bits = bits[::-1]
    return bits


def bits_to_int(bits: Iterable[int] | np.ndarray, *, msb_first: bool = False) -> int:
    """Convert a bit array to an integer.  Inverse of :func:`int_to_bits`."""
    arr = as_bit_array(bits)
    if msb_first:
        arr = arr[::-1]
    value = 0
    for i, bit in enumerate(arr):
        value |= int(bit) << i
    return value
