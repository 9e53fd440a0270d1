"""Tests for the peak-detector receiver and the IC power model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backscatter.detector import PeakDetectorReceiver
from repro.backscatter.power import ACTIVE_RADIO_POWER_UW, InterscatterPowerModel
from repro.exceptions import ConfigurationError


class TestPeakDetectorReceiver:
    def test_below_sensitivity_is_random(self, rng):
        detector = PeakDetectorReceiver(sensitivity_dbm=-32.0)
        bits = detector.decode_bits(
            np.zeros(8000, dtype=complex),
            samples_per_symbol=80,
            num_symbols=100,
            rssi_dbm=-60.0,
            rng=rng,
        )
        assert bits.size == 50
        assert 10 < bits.sum() < 40  # random, not stuck at 0 or 1

    def test_envelope_tracks_amplitude_steps(self):
        detector = PeakDetectorReceiver()
        signal = np.concatenate([np.ones(400), np.zeros(400), np.ones(400)]).astype(complex)
        envelope = detector.envelope(signal)
        assert envelope[350] > 0.9
        assert envelope[799] < 0.3
        assert envelope[1150] > 0.9

    def test_invalid_sample_rate(self):
        with pytest.raises(ConfigurationError):
            PeakDetectorReceiver(0.0)

    def test_decodes_random_constant_symbol_pairs(self, rng):
        # Fig. 8: random + constant symbol = 1, random + random = 0.  A
        # constant symbol puts its energy into an impulse at its start.
        samples_per_symbol = 80
        bits = [1, 0, 1, 1, 0, 0, 1, 0]

        def random_symbol():
            return np.exp(2j * np.pi * rng.random(samples_per_symbol))

        def constant_symbol():
            symbol = np.zeros(samples_per_symbol, dtype=complex)
            symbol[:4] = np.sqrt(samples_per_symbol / 4)
            return symbol

        waveform = np.concatenate(
            [np.concatenate([random_symbol(), constant_symbol() if bit else random_symbol()]) for bit in bits]
        )
        decoded = PeakDetectorReceiver().decode_bits(waveform, samples_per_symbol=samples_per_symbol, num_symbols=16)
        assert decoded.tolist() == bits

    def test_attack_is_faster_than_decay(self):
        detector = PeakDetectorReceiver()
        envelope = detector.envelope(np.concatenate([np.ones(100), np.zeros(100)]))
        rise = int(np.argmax(envelope > 0.9))
        fall = int(np.argmax(envelope[100:] < 0.1))
        assert 0 < rise < fall

    def test_envelope_follows_magnitude_not_phase(self):
        detector = PeakDetectorReceiver()
        envelope = detector.envelope(np.full(200, 3.0 * np.exp(0.7j)))
        assert envelope[-1] == pytest.approx(3.0)

    def test_symbols_past_the_waveform_read_zero(self):
        detector = PeakDetectorReceiver()
        metrics = detector.symbol_envelope_metric(np.ones(240, dtype=complex), 80, 5)
        assert metrics[:3] == pytest.approx([1.0, 1.0, 1.0], abs=1e-6)
        assert metrics[3:].tolist() == [0.0, 0.0]

    def test_at_sensitivity_the_waveform_is_decoded(self):
        # Only inputs strictly below the floor degrade to coin flips.
        detector = PeakDetectorReceiver(sensitivity_dbm=-32.0)
        bits = detector.decode_bits(np.ones(800, dtype=complex), samples_per_symbol=80, num_symbols=10, rssi_dbm=-32.0)
        assert bits.tolist() == [0] * 5


class TestPowerModel:
    def test_reference_matches_paper(self):
        breakdown = InterscatterPowerModel().reference_breakdown()
        assert breakdown.frequency_synthesizer_uw == pytest.approx(9.69)
        assert breakdown.baseband_processor_uw == pytest.approx(8.51)
        assert breakdown.backscatter_modulator_uw == pytest.approx(9.79)
        assert breakdown.total_uw == pytest.approx(28.0, abs=0.1)

    def test_power_scales_with_shift(self):
        model = InterscatterPowerModel()
        low = model.estimate(shift_hz=12e6).total_uw
        high = model.estimate(shift_hz=48e6).total_uw
        assert high > low

    def test_power_scales_with_supply_squared(self):
        nominal = InterscatterPowerModel(supply_voltage_v=1.0).reference_breakdown().total_uw
        reduced = InterscatterPowerModel(supply_voltage_v=0.7).reference_breakdown().total_uw
        assert reduced == pytest.approx(nominal * 0.49, rel=0.01)

    def test_duty_cycle_scales_linearly(self):
        model = InterscatterPowerModel()
        assert model.estimate(duty_cycle=0.1).total_uw == pytest.approx(
            model.estimate(duty_cycle=1.0).total_uw * 0.1
        )

    def test_savings_versus_active_radios(self):
        model = InterscatterPowerModel()
        for radio in ACTIVE_RADIO_POWER_UW:
            assert model.savings_versus_active(radio) > 100.0

    def test_energy_per_bit(self):
        model = InterscatterPowerModel()
        # 28 µW at 2 Mbps = 14 pJ/bit.
        assert model.energy_per_bit_nj(2.0) == pytest.approx(0.014, rel=0.05)

    def test_as_dict(self):
        breakdown = InterscatterPowerModel().reference_breakdown()
        data = breakdown.as_dict()
        assert data["total_uw"] == pytest.approx(breakdown.total_uw)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            InterscatterPowerModel(supply_voltage_v=0.0)
        with pytest.raises(ConfigurationError):
            InterscatterPowerModel().estimate(wifi_rate_mbps=0.0)
        with pytest.raises(ConfigurationError):
            InterscatterPowerModel().estimate(duty_cycle=1.5)
        with pytest.raises(ConfigurationError):
            InterscatterPowerModel().savings_versus_active("lte")
