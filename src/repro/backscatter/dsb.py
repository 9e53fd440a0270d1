"""Double-sideband (prior work) backscatter modulator — the Fig. 6 baseline.

Passive Wi-Fi and FS-Backscatter shift the carrier by toggling the antenna
between two *real* impedance states at Δf.  Multiplying the incident tone by
a real ±1 square wave produces both ``f_c + Δf`` and ``f_c − Δf`` images:
the mirror copy wastes spectrum and, in the interscatter frequency plan,
lands either outside the ISM band or on top of Wi-Fi channel 6 (§2.3.1).
This implementation exists so the reproduction can quantify exactly that
(Fig. 6 spectra and the Fig. 12 coexistence experiment).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.backscatter.subcarrier import quadrature_square_wave

__all__ = ["DsbBackscatterWaveform", "DoubleSidebandModulator"]


@dataclass(frozen=True)
class DsbBackscatterWaveform:
    """Output of the double-sideband modulator.

    Attributes
    ----------
    reflection:
        Per-sample (real-valued) reflection coefficient.
    sample_rate_hz:
        Sample rate.
    shift_hz:
        Sub-carrier shift Δf (both +Δf and −Δf images are produced).
    """

    reflection: np.ndarray
    sample_rate_hz: float
    shift_hz: float

    def apply_to(self, incident: np.ndarray) -> np.ndarray:
        """Multiply an incident waveform by the reflection coefficient."""
        incident = np.asarray(incident, dtype=complex).ravel()
        if incident.size < self.reflection.size:
            raise ConfigurationError(
                "incident waveform shorter than the backscatter waveform"
            )
        out = np.zeros_like(incident)
        out[: self.reflection.size] = incident[: self.reflection.size] * self.reflection
        return out


class DoubleSidebandModulator:
    """Two-state (on/off keyed sub-carrier) backscatter modulator.

    Parameters
    ----------
    shift_hz:
        Sub-carrier frequency Δf.
    sample_rate_hz:
        Simulation sample rate.
    """

    def __init__(self, shift_hz: float = 35_750_000.0, sample_rate_hz: float = 88_000_000.0) -> None:
        if sample_rate_hz <= 2.0 * abs(shift_hz):
            raise ConfigurationError("sample_rate_hz must exceed twice the sub-carrier shift")
        self.shift_hz = shift_hz
        self.sample_rate_hz = sample_rate_hz

    def modulate_baseband(self, baseband: np.ndarray) -> DsbBackscatterWaveform:
        """Build the real reflection waveform for a complex baseband signal.

        Prior sub-carrier designs convey the baseband by phase-modulating a
        real square-wave sub-carrier; mathematically the reflection is
        ``Re(baseband · e^{j2πΔft})`` (with square-wave sin/cos), which puts
        the wanted copy of the baseband at ``+Δf`` *and* its conjugate mirror
        at ``−Δf``.  The wanted copy is perfectly decodable — the cost of the
        design is the wasted mirror spectrum, which is exactly what Fig. 6
        and Fig. 12 measure.
        """
        baseband = np.asarray(baseband, dtype=complex).ravel()
        if baseband.size == 0:
            raise ConfigurationError("baseband waveform is empty")
        subcarrier = quadrature_square_wave(self.shift_hz, self.sample_rate_hz, baseband.size)
        return DsbBackscatterWaveform(
            reflection=np.real(baseband * subcarrier),
            sample_rate_hz=self.sample_rate_hz,
            shift_hz=self.shift_hz,
        )

    def modulate_tone_shift(self, num_samples: int) -> DsbBackscatterWaveform:
        """Reflection waveform for a pure (double-sideband) frequency shift."""
        return self.modulate_baseband(np.ones(num_samples, dtype=complex))
