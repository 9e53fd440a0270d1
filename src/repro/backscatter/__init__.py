"""Backscatter front-end models: the heart of the interscatter tag.

* :mod:`repro.backscatter.impedance` — the antenna/circuit reflection-
  coefficient model and the four complex impedance states of §2.3.1.
* :mod:`repro.backscatter.subcarrier` — square-wave sub-carrier synthesis
  with explicit odd harmonics (the 9.5 dB / 14 dB images of §2.3.1, step 1).
* :mod:`repro.backscatter.ssb` — the single-sideband backscatter modulator
  (the paper's key hardware contribution).
* :mod:`repro.backscatter.dsb` — the prior-work double-sideband baseline
  used for comparison in Fig. 6 and Fig. 12.
* :mod:`repro.backscatter.detector` — the ultra-low-power peak-detector
  receiver of the OFDM AM downlink (§2.4).
* :mod:`repro.backscatter.power` — the 65 nm IC power model reproducing the
  28 µW budget of §3.
"""

from repro.backscatter.impedance import (
    ImpedanceState,
    QUADRATURE_IMPEDANCE_STATES,
    reflection_coefficient,
)
from repro.backscatter.subcarrier import SquareWaveSubcarrier
from repro.backscatter.ssb import SingleSidebandModulator
from repro.backscatter.dsb import DoubleSidebandModulator
from repro.backscatter.detector import PeakDetectorReceiver
from repro.backscatter.power import InterscatterPowerModel, PowerBreakdown

__all__ = [
    "ImpedanceState",
    "QUADRATURE_IMPEDANCE_STATES",
    "reflection_coefficient",
    "SquareWaveSubcarrier",
    "SingleSidebandModulator",
    "DoubleSidebandModulator",
    "PeakDetectorReceiver",
    "InterscatterPowerModel",
    "PowerBreakdown",
]
