"""Spectrum estimation helpers used by the figure reproductions.

Fig. 6 and Fig. 9 of the paper are spectrum plots; these functions produce
the underlying (frequency, PSD) series and the summary statistics used in
the benchmark assertions (single-tone peak location, sideband asymmetry).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.dsp import linear_to_db

__all__ = [
    "PowerSpectrum",
    "power_spectral_density",
    "spectral_peak",
    "occupied_bandwidth",
    "spectrum_asymmetry_db",
]


@dataclass(frozen=True)
class PowerSpectrum:
    """A two-sided power spectral density estimate.

    Attributes
    ----------
    frequencies_hz:
        Frequency bins (baseband offsets, may be negative), ascending.
    psd:
        Linear power density per bin.
    """

    frequencies_hz: np.ndarray
    psd: np.ndarray

    @property
    def psd_db(self) -> np.ndarray:
        """PSD in dB (relative units)."""
        return np.asarray(linear_to_db(self.psd))

    def band_power(self, low_hz: float, high_hz: float) -> float:
        """Total linear power in the band [low_hz, high_hz]."""
        mask = (self.frequencies_hz >= low_hz) & (self.frequencies_hz <= high_hz)
        if not np.any(mask):
            return 0.0
        return float(np.sum(self.psd[mask]))


def power_spectral_density(
    waveform: np.ndarray,
    sample_rate: float,
    *,
    nfft: int = 4096,
) -> PowerSpectrum:
    """Welch PSD estimate of a complex baseband waveform (two-sided)."""
    # Imported here: scipy.signal (which loads scipy.stats) costs most of a
    # process's start-up, and only the spectrum figures call this.
    from scipy import signal as scipy_signal

    if waveform.size == 0:
        raise ValueError("waveform is empty")
    nperseg = min(nfft, waveform.size)
    freqs, psd = scipy_signal.welch(
        waveform,
        fs=sample_rate,
        nperseg=nperseg,
        return_onesided=False,
        detrend=False,
        scaling="density",
    )
    order = np.argsort(freqs)
    return PowerSpectrum(frequencies_hz=freqs[order], psd=psd[order])


def spectral_peak(spectrum: PowerSpectrum) -> tuple[float, float]:
    """Return ``(frequency_hz, psd_db)`` of the strongest bin."""
    idx = int(np.argmax(spectrum.psd))
    return float(spectrum.frequencies_hz[idx]), float(np.asarray(spectrum.psd_db)[idx])


def occupied_bandwidth(spectrum: PowerSpectrum, fraction: float = 0.99) -> float:
    """Bandwidth containing *fraction* of the total power, centred on the power centroid."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    total = float(np.sum(spectrum.psd))
    if total <= 0.0:
        return 0.0
    order = np.argsort(spectrum.psd)[::-1]
    cumulative = np.cumsum(spectrum.psd[order])
    needed = order[: int(np.searchsorted(cumulative, fraction * total)) + 1]
    freqs = spectrum.frequencies_hz[needed]
    return float(freqs.max() - freqs.min())


def spectrum_asymmetry_db(
    spectrum: PowerSpectrum,
    center_hz: float,
    offset_hz: float,
    half_width_hz: float,
) -> float:
    """Power difference (dB) between the upper and lower sidebands.

    Measures ``P(center + offset ± half_width) - P(center - offset ± half_width)``.
    A large positive value means the upper sideband dominates — exactly what
    single-sideband backscatter should produce (Fig. 6), whereas
    double-sideband backscatter yields a value near zero.
    """
    upper = spectrum.band_power(center_hz + offset_hz - half_width_hz, center_hz + offset_hz + half_width_hz)
    lower = spectrum.band_power(center_hz - offset_hz - half_width_hz, center_hz - offset_hz + half_width_hz)
    return float(linear_to_db(upper) - linear_to_db(lower))
