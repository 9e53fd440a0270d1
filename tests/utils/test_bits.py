"""Unit and property tests for bit manipulation helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.bits import (
    as_bit_array,
    bits_to_bytes,
    bits_to_int,
    bytes_to_bits,
    int_to_bits,
)


class TestBytesToBits:
    def test_single_byte_lsb_first(self):
        assert bytes_to_bits(b"\x01").tolist() == [1, 0, 0, 0, 0, 0, 0, 0]

    def test_single_byte_msb_first(self):
        assert bytes_to_bits(b"\x01", msb_first=True).tolist() == [0, 0, 0, 0, 0, 0, 0, 1]

    def test_empty(self):
        assert bytes_to_bits(b"").size == 0

    def test_known_pattern(self):
        # 0xAA = 10101010: LSB first starts with 0.
        assert bytes_to_bits(b"\xaa").tolist() == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_length(self):
        assert bytes_to_bits(b"abc").size == 24

    def test_accepts_bytearray_and_int_sequences(self):
        expected = bytes_to_bits(b"\x0f\xf0")
        assert np.array_equal(bytes_to_bits(bytearray(b"\x0f\xf0")), expected)
        assert np.array_equal(bytes_to_bits([0x0F, 0xF0]), expected)

    def test_returns_uint8(self):
        assert bytes_to_bits(b"\xff").dtype == np.uint8


class TestBitsToBytes:
    def test_roundtrip_simple(self):
        assert bits_to_bytes(bytes_to_bits(b"\xde\xad\xbe\xef")) == b"\xde\xad\xbe\xef"

    def test_non_multiple_of_eight_raises(self):
        with pytest.raises(ValueError):
            bits_to_bytes([1, 0, 1])

    def test_msb_roundtrip(self):
        data = b"\x12\x34"
        assert bits_to_bytes(bytes_to_bits(data, msb_first=True), msb_first=True) == data

    def test_empty(self):
        assert bits_to_bytes([]) == b""

    def test_known_pattern(self):
        assert bits_to_bytes([0, 1, 0, 1, 0, 1, 0, 1]) == b"\xaa"
        assert bits_to_bytes([0, 1, 0, 1, 0, 1, 0, 1], msb_first=True) == b"\x55"

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            bits_to_bytes([0, 1, 0, 1, 0, 1, 0, 2])


class TestIntBits:
    def test_int_to_bits_lsb(self):
        assert int_to_bits(5, 4).tolist() == [1, 0, 1, 0]

    def test_int_to_bits_msb(self):
        assert int_to_bits(5, 4, msb_first=True).tolist() == [0, 1, 0, 1]

    def test_value_too_large(self):
        with pytest.raises(ValueError):
            int_to_bits(16, 4)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            int_to_bits(-1, 4)

    def test_bits_to_int_roundtrip(self):
        assert bits_to_int(int_to_bits(1234, 16)) == 1234

    def test_zero_width(self):
        assert int_to_bits(0, 0).size == 0

    def test_negative_width_raises(self):
        with pytest.raises(ValueError):
            int_to_bits(0, -1)

    def test_bits_to_int_known_values(self):
        assert bits_to_int([1, 0, 1, 1]) == 13
        assert bits_to_int([1, 0, 1, 1], msb_first=True) == 11

    def test_bits_to_int_empty_is_zero(self):
        assert bits_to_int([]) == 0


class TestAsBitArray:
    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            as_bit_array([0, 1, 2])

    def test_flattens(self):
        assert as_bit_array(np.array([[1, 0], [0, 1]])).tolist() == [1, 0, 0, 1]

    def test_booleans_become_uint8_bits(self):
        bits = as_bit_array([True, False, True])
        assert bits.dtype == np.uint8
        assert bits.tolist() == [1, 0, 1]


@given(st.binary(min_size=0, max_size=64))
def test_property_bytes_bits_roundtrip(data):
    assert bits_to_bytes(bytes_to_bits(data)) == data


@given(st.binary(min_size=0, max_size=64))
def test_property_bytes_bits_roundtrip_msb(data):
    assert bits_to_bytes(bytes_to_bits(data, msb_first=True), msb_first=True) == data


@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_property_int_bits_roundtrip(value, msb):
    assert bits_to_int(int_to_bits(value, 32, msb_first=msb), msb_first=msb) == value


@given(st.binary(min_size=1, max_size=64))
def test_property_msb_first_reverses_each_byte(data):
    lsb = bytes_to_bits(data).reshape(-1, 8)
    msb = bytes_to_bits(data, msb_first=True).reshape(-1, 8)
    assert np.array_equal(msb, lsb[:, ::-1])


@given(st.binary(min_size=0, max_size=8))
def test_property_bytes_match_little_endian_integer(data):
    # LSB-first bits of a byte string read as one integer are its little-endian value.
    assert bits_to_int(bytes_to_bits(data)) == int.from_bytes(data, "little")
