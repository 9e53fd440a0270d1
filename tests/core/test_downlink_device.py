"""Tests for the OFDM AM downlink and the tag device model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backscatter.detector import PeakDetectorReceiver
from repro.core.device import DeviceState, InterscatterDevice
from repro.core.downlink import InterscatterDownlink
from repro.core.timing import InterscatterTiming
from repro.exceptions import ConfigurationError, LinkBudgetError
from repro.wifi.ofdm.scrambler_seeds import FixedSeedModel, RandomSeedModel


class TestDownlinkWaveform:
    def test_clean_waveform_decodes(self, rng):
        downlink = InterscatterDownlink(seed_model=FixedSeedModel(0x2B), rng=rng)
        bits = rng.integers(0, 2, 40).astype(np.uint8)
        result = downlink.transmit_waveform(bits)
        assert result.bit_errors == 0
        assert result.seed_predicted_correctly

    def test_noisy_waveform_mostly_decodes(self, rng):
        downlink = InterscatterDownlink(seed_model=FixedSeedModel(0x2B), rng=rng)
        bits = rng.integers(0, 2, 40).astype(np.uint8)
        result = downlink.transmit_waveform(bits, snr_db=20.0)
        assert result.bit_error_rate < 0.1

    def test_unpredictable_seed_garbles_downlink(self, rng):
        downlink = InterscatterDownlink(seed_model=RandomSeedModel(rng), rng=rng)
        bits = np.ones(32, dtype=np.uint8)
        result = downlink.transmit_waveform(bits)
        # Crafting for the wrong seed destroys the constant symbols, so the
        # ones are no longer reliably detected.
        if not result.seed_predicted_correctly:
            assert result.bit_error_rate > 0.2

    def test_incrementing_seed_model_stays_synchronised(self, rng):
        downlink = InterscatterDownlink(rng=rng)
        bits = rng.integers(0, 2, 16).astype(np.uint8)
        for _ in range(3):
            result = downlink.transmit_waveform(bits)
            assert result.seed_predicted_correctly
            assert result.bit_errors == 0

    def test_bit_rate(self, rng):
        downlink = InterscatterDownlink(rng=rng)
        result = downlink.transmit_waveform(np.array([1, 0], dtype=np.uint8))
        assert result.bit_rate_bps == 125e3


class TestDownlinkLink:
    def test_ber_increases_with_distance(self):
        downlink = InterscatterDownlink()
        near, _ = downlink.link_bit_error_rate(1.0)
        far, _ = downlink.link_bit_error_rate(15.0)
        assert near <= far

    def test_below_sensitivity_is_coin_flip(self):
        downlink = InterscatterDownlink(
            peak_detector=PeakDetectorReceiver(sensitivity_dbm=-32.0)
        )
        ber, rssi = downlink.link_bit_error_rate(100.0)
        assert rssi < -32.0
        assert ber == 0.5

    def test_an_array_of_distances_is_bit_for_bit_the_per_point_calls(self):
        # Near field (<= 1 m), both sides of the -32 dBm cliff and far beyond.
        distances = np.concatenate(
            [[0.0, 1.0], np.linspace(0.0, 1.0, 101), np.random.default_rng(3).uniform(0.0, 40.0, 3000)]
        )
        downlink = InterscatterDownlink()
        ber, rssi = downlink.link_bit_error_rate(distances, tx_power_dbm=17.5)
        reference = [downlink.link_bit_error_rate(d, tx_power_dbm=17.5) for d in distances.tolist()]
        assert all(isinstance(b, float) and isinstance(r, float) for b, r in reference)
        assert ber.tolist() == [b for b, _ in reference]
        assert rssi.tolist() == [r for _, r in reference]
        sensitivity = downlink.peak_detector.sensitivity_dbm
        assert np.any(rssi <= sensitivity) and np.any((rssi > sensitivity) & (ber > 0.0))

    def test_a_negative_distance_anywhere_in_an_array_is_rejected(self):
        downlink = InterscatterDownlink()
        with pytest.raises(LinkBudgetError, match="non-negative") as scalar:
            downlink.link_bit_error_rate(-0.5)
        with pytest.raises(LinkBudgetError) as array:
            downlink.link_bit_error_rate(np.array([1.0, 2.0, -0.5, 3.0]))
        assert str(array.value) == str(scalar.value)

    def test_simulate_link_statistics(self, rng):
        downlink = InterscatterDownlink(rng=rng)
        bits = rng.integers(0, 2, 400).astype(np.uint8)
        result = downlink.simulate_link(bits, 2.0, rng=rng)
        assert result.bit_error_rate < 0.05
        assert result.rssi_dbm is not None


class TestDeviceModel:
    def test_successful_opportunity(self):
        device = InterscatterDevice(rng=np.random.default_rng(0))
        opportunity = device.service_advertisement()
        assert opportunity.detected
        assert opportunity.fits_in_window
        assert opportunity.energy_uj > 0.0
        assert device.state is DeviceState.IDLE

    def test_energy_accumulates(self):
        device = InterscatterDevice(rng=np.random.default_rng(0))
        for _ in range(5):
            device.service_advertisement()
        assert device.total_energy_uj > 0.0
        assert len(device.opportunities) == 5

    def test_missed_detection_consumes_little_energy(self):
        device = InterscatterDevice(
            detection_probability=0.0, rng=np.random.default_rng(0)
        )
        opportunity = device.service_advertisement()
        assert not opportunity.detected
        assert opportunity.energy_uj < 0.01

    def test_oversized_packet_does_not_fit(self):
        device = InterscatterDevice(rng=np.random.default_rng(0))
        opportunity = device.service_advertisement(wifi_psdu_bytes=500)
        assert not opportunity.fits_in_window

    def test_average_power_far_below_active_radio(self):
        device = InterscatterDevice(rng=np.random.default_rng(0))
        # Duty-cycled over a 20 ms advertising interval the average power is
        # a tiny fraction of the 28 µW active figure.
        assert device.average_power_uw(0.02) < 2.0

    def test_higher_rate_lowers_average_power(self):
        slow = InterscatterDevice(InterscatterTiming(wifi_rate_mbps=2.0), rng=np.random.default_rng(0))
        fast = InterscatterDevice(InterscatterTiming(wifi_rate_mbps=11.0), rng=np.random.default_rng(0))
        # Same bytes take less air time at 11 Mbps... compare at equal payload.
        slow_power = slow.power_breakdown().total_uw
        fast_power = fast.power_breakdown().total_uw
        assert fast_power == pytest.approx(slow_power, rel=0.15)

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            InterscatterDevice(detection_jitter_s=-1.0)
        with pytest.raises(ConfigurationError):
            InterscatterDevice(detection_probability=1.5)
        with pytest.raises(ConfigurationError):
            InterscatterDevice().average_power_uw(0.0)
