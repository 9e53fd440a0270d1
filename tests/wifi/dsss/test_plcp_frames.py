"""Tests for PLCP preamble/header construction and MAC frame helpers."""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, DecodeError, PacketFormatError
from repro.wifi.dsss.frames import (
    BROADCAST_ADDRESS,
    WifiDataFrame,
    mpdu_with_fcs,
    verify_fcs,
)
from repro.wifi.dsss.plcp import (
    PLCP_HEADER_BITS,
    PLCP_PREAMBLE_BITS,
    SHORT_PLCP_PREAMBLE_BITS,
    build_plcp_preamble_and_header,
    parse_plcp_header,
)


class TestPlcp:
    @pytest.mark.parametrize("rate", [1.0, 2.0, 5.5, 11.0])
    def test_long_preamble_roundtrip(self, rate):
        bits = build_plcp_preamble_and_header(rate, 100)
        assert bits.size == PLCP_PREAMBLE_BITS + PLCP_HEADER_BITS
        header = parse_plcp_header(bits[PLCP_PREAMBLE_BITS:])
        assert header.rate_mbps == rate
        assert header.crc_ok
        assert header.psdu_length_bytes() == 100

    @pytest.mark.parametrize("rate", [2.0, 5.5, 11.0])
    @pytest.mark.parametrize("length", [1, 37, 38, 77, 104, 209, 1000])
    def test_length_field_roundtrip(self, rate, length):
        bits = build_plcp_preamble_and_header(rate, length, short_preamble=True)
        header = parse_plcp_header(bits[SHORT_PLCP_PREAMBLE_BITS:])
        assert header.psdu_length_bytes() == length

    def test_short_preamble_is_shorter(self):
        long = build_plcp_preamble_and_header(2.0, 50)
        short = build_plcp_preamble_and_header(2.0, 50, short_preamble=True)
        assert short.size < long.size

    def test_short_preamble_rejects_1mbps(self):
        with pytest.raises(ConfigurationError):
            build_plcp_preamble_and_header(1.0, 50, short_preamble=True)

    def test_invalid_rate(self):
        with pytest.raises(ConfigurationError):
            build_plcp_preamble_and_header(3.0, 50)

    def test_invalid_length(self):
        with pytest.raises(ConfigurationError):
            build_plcp_preamble_and_header(2.0, 0)

    def test_corrupted_signal_field_detected(self):
        bits = build_plcp_preamble_and_header(2.0, 50)
        header_bits = bits[PLCP_PREAMBLE_BITS:].copy()
        header_bits[0] ^= 1
        try:
            header = parse_plcp_header(header_bits)
            assert not header.crc_ok
        except DecodeError:
            pass  # an invalid SIGNAL value is also an acceptable outcome

    def test_header_too_short(self):
        with pytest.raises(DecodeError):
            parse_plcp_header(np.zeros(20, dtype=np.uint8))


class TestFrames:
    def test_data_frame_roundtrip(self):
        frame = WifiDataFrame(payload=b"neural data", sequence_number=42)
        parsed = WifiDataFrame.parse(frame.mpdu())
        assert parsed.payload == b"neural data"
        assert parsed.sequence_number == 42

    def test_fcs_detects_corruption(self):
        mpdu = bytearray(WifiDataFrame(payload=b"x" * 10).mpdu())
        mpdu[30] ^= 0xFF
        assert not verify_fcs(bytes(mpdu))

    def test_mpdu_length(self):
        frame = WifiDataFrame(payload=b"x" * 10)
        assert frame.mpdu_length_bytes == len(frame.mpdu()) == 24 + 10 + 4

    def test_bad_address(self):
        with pytest.raises(PacketFormatError):
            WifiDataFrame(payload=b"", destination=b"\x01")

    def test_bad_sequence_number(self):
        with pytest.raises(PacketFormatError):
            WifiDataFrame(payload=b"", sequence_number=4096)

    def test_parse_rejects_bad_fcs(self):
        with pytest.raises(PacketFormatError):
            WifiDataFrame.parse(b"\x00" * 40)

    def test_mpdu_with_fcs_verifies(self):
        assert verify_fcs(mpdu_with_fcs(b"arbitrary body"))

    def test_header_layout(self):
        source = b"\x02\x00\x00\x00\x00\x01"
        bssid = b"\x02\x00\x00\x00\x00\x02"
        header = WifiDataFrame(payload=b"", source=source, bssid=bssid, sequence_number=0xABC).mac_header()
        assert len(header) == 24
        # Frame control: protocol 0, type data, subtype data, no flags; zero duration.
        assert header[:4] == b"\x08\x00\x00\x00"
        assert header[4:10] == BROADCAST_ADDRESS
        assert header[10:16] == source
        assert header[16:22] == bssid
        # Sequence control: fragment number 0 in the low nibble.
        assert int.from_bytes(header[22:24], "little") == 0xABC << 4

    def test_parse_recovers_addresses(self):
        frame = WifiDataFrame(payload=b"ab", destination=b"\x10" * 6, source=b"\x20" * 6, bssid=b"\x30" * 6)
        assert WifiDataFrame.parse(frame.mpdu()) == frame

    def test_parse_rejects_short_mpdu(self):
        short = mpdu_with_fcs(b"\x00" * 23)
        assert verify_fcs(short)
        with pytest.raises(PacketFormatError, match="too short"):
            WifiDataFrame.parse(short)

    def test_verify_fcs_rejects_fragments(self):
        assert not verify_fcs(b"\x00\x01\x02")

    @given(st.binary(max_size=64))
    def test_property_fcs_is_the_ieee_crc32(self, body):
        # The FCS is the standard CRC-32, transmitted least-significant byte first.
        assert mpdu_with_fcs(body) == body + zlib.crc32(body).to_bytes(4, "little")
