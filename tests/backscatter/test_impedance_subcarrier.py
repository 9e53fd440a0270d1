"""Tests for the impedance model and the square-wave sub-carrier."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.backscatter.impedance import (
    QUADRATURE_IMPEDANCE_STATES,
    optimize_states_for_antenna,
    quadrature_reflection_targets,
    reflection_coefficient,
)
from repro.backscatter.subcarrier import (
    SquareWaveSubcarrier,
    quadrature_square_wave,
    square_wave,
)
from repro.exceptions import ConfigurationError
from repro.utils.spectrum import power_spectral_density, spectral_peak


class TestReflectionCoefficient:
    def test_matched_load_no_reflection(self):
        assert reflection_coefficient(50.0, 50.0) == pytest.approx(0.0)

    def test_short_circuit_full_reflection(self):
        assert reflection_coefficient(50.0, 0.0) == pytest.approx(1.0)

    def test_open_circuit_inverted_reflection(self):
        assert reflection_coefficient(50.0, 1e12) == pytest.approx(-1.0, abs=1e-6)

    def test_zero_denominator(self):
        with pytest.raises(ConfigurationError):
            reflection_coefficient(50.0, -50.0)

    def test_magnitude_bounded_for_reactive_loads(self):
        gamma = reflection_coefficient(50.0, 25j)
        assert abs(gamma) == pytest.approx(1.0)

    def test_swapping_impedances_negates_reflection(self):
        assert reflection_coefficient(20.0 + 10.0j, 50.0) == pytest.approx(-reflection_coefficient(50.0, 20.0 + 10.0j))


class TestQuadratureStates:
    def test_four_states(self):
        assert set(QUADRATURE_IMPEDANCE_STATES) == {"1+j", "1-j", "-1+j", "-1-j"}

    def test_states_realise_their_targets(self):
        for state in QUADRATURE_IMPEDANCE_STATES.values():
            assert state.reflection(50.0) == pytest.approx(state.target_reflection, abs=1e-9)

    def test_targets_are_quadrature(self):
        targets = quadrature_reflection_targets()
        phases = sorted(np.angle(v) % (2 * np.pi) for v in targets.values())
        gaps = np.diff(phases)
        assert np.allclose(gaps, np.pi / 2, atol=1e-9)

    def test_reoptimised_states_for_loop_antenna(self):
        states = optimize_states_for_antenna(15.0 + 45.0j)
        for state in states.values():
            assert state.reflection(15.0 + 45.0j) == pytest.approx(state.target_reflection, abs=1e-9)

    def test_zero_antenna_rejected(self):
        with pytest.raises(ConfigurationError):
            optimize_states_for_antenna(0.0)

    @pytest.mark.parametrize("label", ["1+j", "1-j", "-1+j", "-1-j"])
    def test_states_are_lossless_reactances(self, label):
        # |Γ| = 1 against a 50 Ω antenna needs a purely reactive switch load:
        # the tag reflects all incident power and only steers its phase.
        state = QUADRATURE_IMPEDANCE_STATES[label]
        assert state.circuit_impedance_ohm.real == pytest.approx(0.0, abs=1e-9)
        assert abs(state.reflection(50.0)) == pytest.approx(1.0)

    def test_50_ohm_states_miss_their_targets_on_a_loop_antenna(self):
        # Why §5's prototypes re-optimise the switch network.
        loop = 15.0 + 45.0j
        states = QUADRATURE_IMPEDANCE_STATES.values()
        errors = [abs(state.reflection(loop) - state.target_reflection) for state in states]
        assert min(errors) > 0.5


class TestSquareWave:
    def test_values_are_plus_minus_one(self):
        wave = square_wave(1e6, 16e6, 64)
        assert set(np.unique(wave)) <= {1.0, -1.0}

    def test_harmonic_levels_match_paper(self):
        # §2.3.1: the third and fifth harmonics sit 9.5 dB and 14 dB below the
        # fundamental; the quadrature pair puts them on the -3Δf and +5Δf
        # images.  At 64 samples per period the sampled +5Δf level reads
        # -13.90 dB, outside the 0.1 dB tolerance, hence 128.
        periods = 16
        samples = SquareWaveSubcarrier(shift_hz=1e6, sample_rate_hz=128e6).generate(128 * periods)
        spectrum = np.abs(np.fft.fft(samples))

        def level_db(harmonic: int) -> float:
            return 20.0 * np.log10(spectrum[harmonic * periods] / spectrum[periods])

        assert level_db(-3) == pytest.approx(-9.5, abs=0.1)
        assert level_db(5) == pytest.approx(-14.0, abs=0.1)

    @pytest.mark.parametrize("harmonic", [-1, 3, -5, 7])
    def test_quadrature_pair_cancels_alternate_images(self, harmonic):
        # The cosine/sine square-wave pair keeps only harmonics +1, -3, +5,
        # -7, ...: the mirror copy at -Δf, the one that double-sideband
        # backscatter wastes power on, cancels exactly.
        periods = 16
        samples = SquareWaveSubcarrier(shift_hz=1e6, sample_rate_hz=128e6).generate(128 * periods)
        spectrum = np.abs(np.fft.fft(samples))
        assert spectrum[harmonic * periods] < 1e-6 * spectrum[periods]

    def test_quadrature_square_wave_values(self):
        wave = quadrature_square_wave(1e6, 16e6, 64)
        assert np.allclose(np.abs(wave.real), 1.0)
        assert np.allclose(np.abs(wave.imag), 1.0)

    def test_real_part_leads_by_a_quarter_period(self):
        # 16 samples per period: the cosine-phase wave is the sine-phase one
        # four samples early.
        wave = quadrature_square_wave(1e6, 16e6, 64)
        assert np.array_equal(wave.real[:-4], wave.imag[4:])

    def test_whole_periods_have_zero_mean(self):
        assert np.mean(square_wave(1e6, 16e6, 64)) == 0.0

    def test_subcarrier_spectral_peak_at_shift(self):
        generator = SquareWaveSubcarrier(shift_hz=5e6, sample_rate_hz=40e6)
        samples = generator.generate(8192)
        peak, _ = spectral_peak(power_spectral_density(samples, 40e6))
        assert peak == pytest.approx(5e6, abs=50e3)

    def test_ideal_subcarrier_is_pure_exponential(self):
        generator = SquareWaveSubcarrier(shift_hz=5e6, sample_rate_hz=40e6, ideal=True)
        samples = generator.generate(1024)
        assert np.allclose(np.abs(samples), 1.0)

    def test_ideal_subcarrier_advances_by_the_shift(self):
        samples = SquareWaveSubcarrier(shift_hz=5e6, sample_rate_hz=40e6, ideal=True).generate(100)
        assert np.allclose(samples[1:] / samples[:-1], np.exp(2j * np.pi * 5e6 / 40e6))

    @pytest.mark.parametrize("ideal", [False, True])
    def test_zero_samples_give_an_empty_sequence(self, ideal):
        assert SquareWaveSubcarrier(shift_hz=1e6, sample_rate_hz=16e6, ideal=ideal).generate(0).size == 0

    def test_negative_samples_rejected(self):
        with pytest.raises(ConfigurationError):
            square_wave(1e6, 16e6, -5)

    def test_non_positive_sample_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            square_wave(1e6, 0.0, 16)

    @given(st.floats(min_value=1e5, max_value=1e7))
    def test_property_square_wave_zero_mean(self, freq):
        # An odd number of samples per period biases the sampled wave by up
        # to one sample per period, so the bound reflects that quantisation.
        wave = square_wave(freq, 80e6, 8000)
        assert abs(np.mean(wave)) < 0.12
