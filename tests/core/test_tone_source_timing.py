"""Tests for the Bluetooth tone source and the packet-in-packet timing model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.timing import (
    LONG_PLCP_OVERHEAD_S,
    SHORT_PLCP_OVERHEAD_S,
    InterscatterTiming,
    max_wifi_payload_bytes,
)
from repro.core.tone_source import BluetoothToneSource
from repro.exceptions import ConfigurationError
from repro.utils.spectrum import occupied_bandwidth, power_spectral_density


class TestBluetoothToneSource:
    def test_tone_parameters(self):
        source = BluetoothToneSource("ti_cc2650", channel_index=38, tx_power_dbm=4.0)
        tone = source.tone_parameters()
        assert tone.channel_index == 38
        assert tone.center_frequency_hz == pytest.approx(2.426e9)
        assert tone.tx_power_dbm == 4.0
        # Tone sits ~+250 kHz from the centre (plus small device offset).
        assert tone.tone_frequency_hz - tone.center_frequency_hz == pytest.approx(250e3, abs=20e3)

    def test_tone_duration_matches_payload(self):
        source = BluetoothToneSource(payload_length=31)
        assert source.tone_parameters().duration_s == pytest.approx(248e-6)

    def test_tone_bit_zero_gives_negative_offset(self):
        source = BluetoothToneSource(tone_bit=0)
        tone = source.tone_parameters()
        assert tone.tone_frequency_hz < tone.center_frequency_hz

    def test_transmitted_payload_window_is_narrowband(self):
        source = BluetoothToneSource("ti_cc2650", rng=np.random.default_rng(0))
        transmission = source.transmit()
        spectrum = power_spectral_density(transmission.payload_waveform, source.sample_rate_hz)
        assert occupied_bandwidth(spectrum) < 400e3

    def test_random_transmission_is_wideband(self):
        source = BluetoothToneSource("ti_cc2650", rng=np.random.default_rng(0))
        transmission = source.transmit_random()
        spectrum = power_spectral_density(transmission.payload_waveform, source.sample_rate_hz)
        assert occupied_bandwidth(spectrum) > 500e3


class TestInterscatterTiming:
    def test_paper_packet_sizes(self):
        assert max_wifi_payload_bytes(2.0) == 38
        assert max_wifi_payload_bytes(5.5) == 104
        assert max_wifi_payload_bytes(11.0) == 209

    def test_backscatter_window(self):
        timing = InterscatterTiming(guard_interval_s=4e-6)
        assert timing.ble_payload_duration_s == pytest.approx(248e-6)
        assert timing.backscatter_window_s == pytest.approx(244e-6)

    def test_guard_interval_shrinks_budget(self):
        without = InterscatterTiming(guard_interval_s=0.0).max_wifi_psdu_bytes()
        with_guard = InterscatterTiming(guard_interval_s=4e-6).max_wifi_psdu_bytes()
        assert with_guard <= without

    def test_long_preamble_leaves_little_room(self):
        long_preamble = InterscatterTiming(short_plcp_preamble=False, guard_interval_s=0.0)
        short_preamble = InterscatterTiming(short_plcp_preamble=True, guard_interval_s=0.0)
        assert long_preamble.max_wifi_psdu_bytes() < short_preamble.max_wifi_psdu_bytes()

    def test_one_mbps_cannot_use_short_preamble(self):
        with pytest.raises(ConfigurationError):
            InterscatterTiming(wifi_rate_mbps=1.0, short_plcp_preamble=True)

    def test_fits_helper(self):
        timing = InterscatterTiming(wifi_rate_mbps=2.0, guard_interval_s=0.0)
        assert timing.fits(38)
        assert not timing.fits(39)
        assert not timing.fits(0)

    def test_air_time_within_window(self):
        timing = InterscatterTiming(wifi_rate_mbps=11.0, guard_interval_s=0.0)
        assert timing.wifi_air_time_s(timing.max_wifi_psdu_bytes()) <= timing.ble_payload_duration_s

    def test_payload_with_mac_overhead(self):
        timing = InterscatterTiming(wifi_rate_mbps=2.0, guard_interval_s=0.0)
        assert timing.max_wifi_payload_bytes(mac_overhead_bytes=28) == 38 - 28

    def test_invalid_rate(self):
        with pytest.raises(ConfigurationError):
            InterscatterTiming(wifi_rate_mbps=3.0)

    def test_invalid_payload_length(self):
        with pytest.raises(ConfigurationError):
            InterscatterTiming(ble_payload_bytes=0)
        with pytest.raises(ConfigurationError):
            InterscatterTiming(ble_payload_bytes=32)

    def test_negative_guard_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            InterscatterTiming(guard_interval_s=-1e-6)

    def test_plcp_overheads(self):
        # Short: 72 preamble bits at 1 Mbps + 48 header bits at 2 Mbps; long: 192 bits at 1 Mbps.
        assert SHORT_PLCP_OVERHEAD_S == pytest.approx(96e-6)
        assert LONG_PLCP_OVERHEAD_S == pytest.approx(192e-6)

    @pytest.mark.parametrize("rate", [2.0, 5.5, 11.0])
    def test_max_psdu_is_the_largest_that_fits(self, rate):
        timing = InterscatterTiming(wifi_rate_mbps=rate, guard_interval_s=4e-6)
        largest = timing.max_wifi_psdu_bytes()
        assert timing.wifi_air_time_s(largest) <= timing.backscatter_window_s
        assert timing.wifi_air_time_s(largest + 1) > timing.backscatter_window_s

    def test_one_mbps_cannot_carry_a_data_frame(self):
        # §2.3.3: with the long preamble a 1 Mbps packet leaves room for 7
        # PSDU bytes, less than a 28-byte MAC header and FCS.
        timing = InterscatterTiming(wifi_rate_mbps=1.0, short_plcp_preamble=False, guard_interval_s=0.0)
        assert timing.max_wifi_psdu_bytes() == 7
        assert timing.max_wifi_payload_bytes(mac_overhead_bytes=28) == 0

    def test_guard_longer_than_payload_leaves_no_window(self):
        timing = InterscatterTiming(guard_interval_s=300e-6)
        assert timing.backscatter_window_s == 0.0
        assert timing.max_wifi_psdu_bytes() == 0

    def test_android_advertisement_shrinks_the_packet(self):
        # Android apps control only 24 of the 31 AdvData bytes.
        assert max_wifi_payload_bytes(11.0, ble_payload_bytes=24) == 132
