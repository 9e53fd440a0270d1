"""Tests for DSP helpers: power conversions and AWGN."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.dsp import (
    add_awgn,
    awgn_noise,
    db_to_linear,
    dbm_to_watts,
    linear_to_db,
    scalar_or_array,
    signal_power,
    watts_to_dbm,
)


class TestConversions:
    def test_db_roundtrip(self):
        assert db_to_linear(linear_to_db(3.7)) == pytest.approx(3.7, rel=1e-9)

    def test_dbm_watts(self):
        assert dbm_to_watts(0.0) == pytest.approx(1e-3)
        assert dbm_to_watts(30.0) == pytest.approx(1.0)
        assert watts_to_dbm(1e-3) == pytest.approx(0.0)

    def test_floor_prevents_log_of_zero(self):
        assert np.isfinite(linear_to_db(0.0))
        assert np.isfinite(watts_to_dbm(0.0))

    @given(st.floats(min_value=-100, max_value=100))
    def test_property_dbm_roundtrip(self, dbm):
        assert watts_to_dbm(dbm_to_watts(dbm)) == pytest.approx(dbm, abs=1e-6)

    def test_db_to_linear_broadcasts_over_arrays(self):
        assert np.allclose(db_to_linear(np.array([0.0, 10.0, 20.0])), [1.0, 10.0, 100.0])

    def test_linear_to_db_keeps_scalars_scalar(self):
        assert isinstance(linear_to_db(100.0), float)
        out = linear_to_db(np.array([1.0, 100.0, 0.0]))
        assert isinstance(out, np.ndarray)
        assert out[:2].tolist() == pytest.approx([0.0, 20.0])
        assert out[2] == pytest.approx(-300.0)

    def test_scalar_or_array(self):
        value = np.array([1.5])
        assert scalar_or_array(np.asarray(2.5), 3.0) == 2.5
        assert isinstance(scalar_or_array(np.asarray(2.5), 3.0), float)
        assert scalar_or_array(value, np.zeros(1)) is value


class TestPower:
    def test_signal_power_of_unit_tone(self):
        tone = np.exp(1j * np.linspace(0, 20 * np.pi, 1000))
        assert signal_power(tone) == pytest.approx(1.0, rel=1e-9)

    def test_empty_signal(self):
        assert signal_power(np.zeros(0)) == 0.0

    def test_power_scales_with_amplitude_squared(self, rng):
        signal = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        assert signal_power(2.0 * signal) == pytest.approx(4.0 * signal_power(signal))

    def test_real_square_wave_has_unit_power(self):
        assert signal_power(np.tile([1.0, -1.0], 50)) == pytest.approx(1.0)


class TestAwgn:
    def test_noise_power(self, rng):
        noise = awgn_noise(200_000, 0.25, rng=rng)
        assert signal_power(noise) == pytest.approx(0.25, rel=0.05)

    def test_real_noise(self, rng):
        noise = awgn_noise(10_000, 1.0, rng=rng, complex_valued=False)
        assert not np.iscomplexobj(noise)

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            awgn_noise(-1, 1.0)

    def test_noise_is_reproducible_in_the_generator_seed(self):
        first = awgn_noise(64, 1.0, rng=np.random.default_rng(7))
        second = awgn_noise(64, 1.0, rng=np.random.default_rng(7))
        assert np.array_equal(first, second)

    def test_add_awgn_to_silence_uses_absolute_noise_level(self, rng):
        # With no signal power to refer to, the SNR is taken against unit power.
        noisy = add_awgn(np.zeros(200_000, dtype=complex), 10.0, rng=rng)
        assert signal_power(noisy) == pytest.approx(0.1, rel=0.05)

    def test_add_awgn_keeps_real_signals_real(self, rng):
        noisy = add_awgn(np.ones(1000), 20.0, rng=rng)
        assert not np.iscomplexobj(noisy)
        assert noisy.shape == (1000,)

    def test_add_awgn_snr(self, rng):
        signal = np.exp(2j * np.pi * 0.01 * np.arange(100_000))
        noisy = add_awgn(signal, 10.0, rng=rng)
        noise = noisy - signal
        snr = signal_power(signal) / signal_power(noise)
        assert 10 * np.log10(snr) == pytest.approx(10.0, abs=0.5)
