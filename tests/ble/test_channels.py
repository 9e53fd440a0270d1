"""Tests for the BLE channel map."""

from __future__ import annotations

import dataclasses

import pytest

from repro.ble.channels import (
    ADVERTISING_CHANNELS,
    DATA_CHANNELS,
    ISM_BAND_HIGH_MHZ,
    ISM_BAND_LOW_MHZ,
    advertising_channel,
)
from repro.exceptions import ConfigurationError


class TestAdvertisingChannels:
    def test_three_advertising_channels(self):
        assert sorted(ADVERTISING_CHANNELS) == [37, 38, 39]

    def test_paper_frequencies(self):
        # Fig. 3: channel 37 at 2402, 38 at 2426, 39 at 2480 MHz.
        assert advertising_channel(37).frequency_mhz == 2402.0
        assert advertising_channel(38).frequency_mhz == 2426.0
        assert advertising_channel(39).frequency_mhz == 2480.0

    def test_channels_37_39_at_band_edges(self):
        # The mirror-copy argument of §2.3.1 relies on 37/39 hugging the band edges.
        assert advertising_channel(37).frequency_mhz - ISM_BAND_LOW_MHZ < 3.0
        assert ISM_BAND_HIGH_MHZ - advertising_channel(39).frequency_mhz < 4.0

    def test_non_advertising_index_rejected(self):
        with pytest.raises(ConfigurationError):
            advertising_channel(10)

    @pytest.mark.parametrize("index", [-1, 0, 36, 40])
    def test_indices_outside_37_to_39_rejected(self, index):
        with pytest.raises(ConfigurationError):
            advertising_channel(index)

    def test_channel_38_sits_between_wifi_channels_1_and_6(self):
        # Fig. 3: Wi-Fi channels 1 and 6 are centred on 2412 and 2437 MHz.
        assert 2412.0 < advertising_channel(38).frequency_mhz < 2437.0


class TestDataChannels:
    def test_thirty_seven_data_channels(self):
        assert len(DATA_CHANNELS) == 37

    def test_data_channels_2mhz_spacing(self):
        freqs = sorted(ch.frequency_mhz for ch in DATA_CHANNELS.values())
        gaps = {round(b - a, 3) for a, b in zip(freqs, freqs[1:], strict=False)}
        # All gaps are 2 MHz except the 4 MHz hole around advertising ch. 38.
        assert gaps <= {2.0, 4.0}

    def test_index_to_frequency_follows_the_core_spec(self):
        # Data channels 0-10 sit at 2404 + 2k MHz and 11-36 at 2428 + 2(k - 11) MHz.
        for index, channel in DATA_CHANNELS.items():
            expected = 2404.0 + 2 * index if index <= 10 else 2428.0 + 2 * (index - 11)
            assert channel.frequency_mhz == expected

    def test_all_channels_inside_the_ism_band(self):
        for channel in [*ADVERTISING_CHANNELS.values(), *DATA_CHANNELS.values()]:
            assert ISM_BAND_LOW_MHZ < channel.frequency_mhz < ISM_BAND_HIGH_MHZ

    def test_all_frequencies_unique(self):
        channels = [*ADVERTISING_CHANNELS.values(), *DATA_CHANNELS.values()]
        all_freqs = [ch.frequency_mhz for ch in channels]
        assert len(set(all_freqs)) == 40


class TestLookups:
    def test_frequency_hz_property(self):
        assert advertising_channel(38).frequency_hz == pytest.approx(2.426e9)

    def test_maps_are_keyed_by_channel_index(self):
        for table, advertising in ((ADVERTISING_CHANNELS, True), (DATA_CHANNELS, False)):
            for index, channel in table.items():
                assert channel.index == index
                assert channel.is_advertising is advertising

    def test_channels_are_immutable(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            advertising_channel(37).frequency_mhz = 2404.0
