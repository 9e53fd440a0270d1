"""The Gaussian pulse-shaping filter used by the BLE GFSK modulator."""

from __future__ import annotations

import numpy as np

__all__ = ["gaussian_filter_taps"]


def gaussian_filter_taps(
    bt: float,
    samples_per_symbol: int,
    *,
    span_symbols: int = 3,
) -> np.ndarray:
    """Gaussian pulse-shaping filter used by Bluetooth GFSK (BT = 0.5).

    Parameters
    ----------
    bt:
        Bandwidth-time product of the filter (0.5 for BLE).
    samples_per_symbol:
        Oversampling factor.
    span_symbols:
        Filter span in symbol periods (total taps = span * sps + 1).

    Returns
    -------
    numpy.ndarray
        Unit-sum filter taps.
    """
    if bt <= 0:
        raise ValueError("bt must be positive")
    if samples_per_symbol < 1:
        raise ValueError("samples_per_symbol must be >= 1")
    if span_symbols < 1:
        raise ValueError("span_symbols must be >= 1")
    # Standard Gaussian filter: h(t) ∝ exp(-t² / (2σ²)) with σ = sqrt(ln2)/(2πB),
    # time normalised to the symbol period.
    sigma = np.sqrt(np.log(2.0)) / (2.0 * np.pi * bt)
    half = span_symbols * samples_per_symbol // 2
    t = np.arange(-half, half + 1) / samples_per_symbol
    taps = np.exp(-(t**2) / (2.0 * sigma**2))
    return taps / np.sum(taps)
