"""Tests for spectrum estimation helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.spectrum import (
    PowerSpectrum,
    occupied_bandwidth,
    power_spectral_density,
    spectral_peak,
    spectrum_asymmetry_db,
)


@pytest.fixture
def tone_spectrum():
    fs = 10e6
    n = 50_000
    tone = np.exp(2j * np.pi * 1e6 * np.arange(n) / fs)
    return power_spectral_density(tone, fs)


class TestPowerSpectralDensity:
    def test_peak_at_tone_frequency(self, tone_spectrum):
        peak_freq, _ = spectral_peak(tone_spectrum)
        assert abs(peak_freq - 1e6) < 20e3

    def test_frequencies_sorted(self, tone_spectrum):
        assert np.all(np.diff(tone_spectrum.frequencies_hz) > 0)

    def test_empty_waveform_raises(self):
        with pytest.raises(ValueError):
            power_spectral_density(np.zeros(0), 1e6)

    def test_psd_db_shape(self, tone_spectrum):
        assert tone_spectrum.psd_db.shape == tone_spectrum.psd.shape

    def test_peak_level_is_the_strongest_bin(self, tone_spectrum):
        _, peak_db = spectral_peak(tone_spectrum)
        assert peak_db == pytest.approx(float(np.max(tone_spectrum.psd_db)))

    def test_short_waveform_uses_one_segment(self):
        spectrum = power_spectral_density(np.ones(256, dtype=complex), 1e6)
        assert spectrum.frequencies_hz.size == 256


class TestBandPower:
    def test_full_band_holds_all_power(self, tone_spectrum):
        full = tone_spectrum.band_power(-np.inf, np.inf)
        assert full == pytest.approx(float(np.sum(tone_spectrum.psd)))

    def test_band_without_bins_is_zero(self):
        spectrum = PowerSpectrum(frequencies_hz=np.array([-1.0, 0.0, 1.0]), psd=np.ones(3))
        assert spectrum.band_power(0.2, 0.8) == 0.0

    def test_band_edges_are_inclusive(self):
        spectrum = PowerSpectrum(frequencies_hz=np.array([-1.0, 0.0, 1.0]), psd=np.array([1.0, 2.0, 4.0]))
        assert spectrum.band_power(0.0, 1.0) == 6.0

    def test_widening_the_band_never_loses_power(self, tone_spectrum):
        powers = [tone_spectrum.band_power(1e6 - width, 1e6 + width) for width in (10e3, 100e3, 1e6, 5e6)]
        assert all(a <= b for a, b in zip(powers, powers[1:], strict=False))


class TestOccupiedBandwidth:
    def test_tone_is_narrow(self, tone_spectrum):
        assert occupied_bandwidth(tone_spectrum) < 100e3

    def test_noise_is_wide(self, rng):
        fs = 10e6
        noise = rng.standard_normal(50_000) + 1j * rng.standard_normal(50_000)
        spectrum = power_spectral_density(noise, fs)
        assert occupied_bandwidth(spectrum) > 5e6

    def test_invalid_fraction(self, tone_spectrum):
        with pytest.raises(ValueError):
            occupied_bandwidth(tone_spectrum, fraction=0.0)
        with pytest.raises(ValueError):
            occupied_bandwidth(tone_spectrum, fraction=1.5)

    def test_two_tones_span_their_separation(self):
        fs = 10e6
        t = np.arange(50_000) / fs
        two_tones = np.exp(2j * np.pi * 1e6 * t) + np.exp(-2j * np.pi * 1e6 * t)
        bandwidth = occupied_bandwidth(power_spectral_density(two_tones, fs))
        assert bandwidth == pytest.approx(2e6, abs=50e3)

    def test_silence_has_no_bandwidth(self):
        spectrum = PowerSpectrum(frequencies_hz=np.array([-1.0, 0.0, 1.0]), psd=np.zeros(3))
        assert occupied_bandwidth(spectrum) == 0.0


class TestAsymmetry:
    def test_single_tone_is_asymmetric(self, tone_spectrum):
        asym = spectrum_asymmetry_db(tone_spectrum, 0.0, 1e6, 100e3)
        assert asym > 20.0

    def test_lower_sideband_tone_reads_negative(self):
        fs = 10e6
        tone = np.exp(-2j * np.pi * 1e6 * np.arange(50_000) / fs)
        spectrum = power_spectral_density(tone, fs)
        assert spectrum_asymmetry_db(spectrum, 0.0, 1e6, 100e3) < -20.0

    def test_symmetric_signal_is_balanced(self, rng):
        fs = 10e6
        n = 50_000
        t = np.arange(n) / fs
        # A real cosine has equal power at +f and -f.
        signal = np.cos(2 * np.pi * 1e6 * t).astype(complex)
        spectrum = power_spectral_density(signal, fs)
        assert abs(spectrum_asymmetry_db(spectrum, 0.0, 1e6, 100e3)) < 1.0
