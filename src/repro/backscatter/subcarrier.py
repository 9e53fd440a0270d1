"""Square-wave sub-carrier synthesis (paper §2.3.1, step 1).

The tag cannot run a 2.4 GHz oscillator, so it approximates the quadrature
sub-carrier ``e^{j2πΔft}`` with two square waves at Δf, 90° apart, each
alternating between +1 and −1.  By Fourier analysis the square wave is the
sum of odd harmonics with amplitudes 1/n; the third and fifth harmonics are
9.5 dB and 14 dB below the fundamental, which the paper argues is acceptable
because every 802.11b rate works below 14 dB SNR.

This module provides both the ideal complex exponential (for ablation) and
the quantised square-wave approximation the hardware actually produces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["square_wave", "quadrature_square_wave", "SquareWaveSubcarrier"]


def square_wave(
    frequency_hz: float, sample_rate_hz: float, num_samples: int, *, phase_fraction: float = 0.0
) -> np.ndarray:
    """±1 square wave at *frequency_hz*.

    Parameters
    ----------
    phase_fraction:
        Phase offset as a fraction of the period (0.25 = quarter period,
        which turns the sine-phase square wave into the cosine-phase one).
    """
    if sample_rate_hz <= 0:
        raise ConfigurationError("sample_rate_hz must be positive")
    if num_samples < 0:
        raise ConfigurationError("num_samples must be non-negative")
    # Sample at mid-sample instants (t + Ts/2) so that commensurate
    # frequencies (e.g. fs = 4·Δf) never hit the zero crossings exactly,
    # which would bias the wave and degrade image rejection.
    t = (np.arange(num_samples) + 0.5) / sample_rate_hz
    phase = 2.0 * np.pi * frequency_hz * t + 2.0 * np.pi * phase_fraction
    return np.where(np.sin(phase) >= 0.0, 1.0, -1.0)


def quadrature_square_wave(
    frequency_hz: float, sample_rate_hz: float, num_samples: int
) -> np.ndarray:
    """Complex square-wave approximation of ``e^{j2πft}``.

    The real part is the cosine-phase square wave, the imaginary part the
    sine-phase square wave; values are drawn from {±1 ± j}.
    """
    sin_wave = square_wave(frequency_hz, sample_rate_hz, num_samples)
    cos_wave = square_wave(frequency_hz, sample_rate_hz, num_samples, phase_fraction=0.25)
    return cos_wave + 1j * sin_wave


@dataclass(frozen=True)
class SquareWaveSubcarrier:
    """A Δf sub-carrier generator with selectable fidelity.

    Attributes
    ----------
    shift_hz:
        Sub-carrier frequency Δf (35.75 MHz in the paper's implementation).
    sample_rate_hz:
        Sample rate of the generated sequence.
    ideal:
        When True, generate the ideal complex exponential instead of the
        square-wave approximation (used for ablation studies).
    """

    shift_hz: float
    sample_rate_hz: float
    ideal: bool = False

    def generate(self, num_samples: int) -> np.ndarray:
        """Generate *num_samples* of the sub-carrier."""
        if self.ideal:
            t = np.arange(num_samples) / self.sample_rate_hz
            return np.exp(2j * np.pi * self.shift_hz * t)
        return quadrature_square_wave(self.shift_hz, self.sample_rate_hz, num_samples)
