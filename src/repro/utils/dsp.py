"""Small DSP helpers: power conversions and AWGN.

All complex waveforms in the library are discrete-time complex-baseband
numpy arrays, with an associated sample rate carried separately (usually in
a dataclass such as :class:`repro.ble.gfsk.GfskWaveform`).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "scalar_or_array",
    "db_to_linear",
    "linear_to_db",
    "dbm_to_watts",
    "watts_to_dbm",
    "signal_power",
    "awgn_noise",
    "add_awgn",
]


def scalar_or_array(value: np.ndarray, reference) -> float | np.ndarray:
    """Return ``float(value)`` when *reference* is scalar, *value* otherwise.

    The numeric models that broadcast over arrays (error models, path loss)
    use this so scalar callers keep getting plain floats while the batched
    Monte-Carlo engine gets arrays through unchanged.
    """
    if np.ndim(reference) == 0:
        return float(value)
    return value


def db_to_linear(db: float | np.ndarray) -> float | np.ndarray:
    """Convert a power ratio from decibels to linear scale."""
    return 10.0 ** (np.asarray(db, dtype=float) / 10.0) if isinstance(db, np.ndarray) else 10.0 ** (db / 10.0)


def linear_to_db(value: float | np.ndarray, *, floor: float = 1e-30) -> float | np.ndarray:
    """Convert a linear power ratio to decibels, clamping at *floor*."""
    arr = np.maximum(np.asarray(value, dtype=float), floor)
    out = 10.0 * np.log10(arr)
    return float(out) if np.isscalar(value) or arr.ndim == 0 else out


def dbm_to_watts(dbm: float) -> float:
    """Convert a power level in dBm to watts."""
    return 10.0 ** ((dbm - 30.0) / 10.0)


def watts_to_dbm(watts: float, *, floor: float = 1e-30) -> float:
    """Convert a power level in watts to dBm."""
    return 10.0 * np.log10(max(watts, floor)) + 30.0


def signal_power(signal: np.ndarray) -> float:
    """Mean power (mean squared magnitude) of a signal."""
    if signal.size == 0:
        return 0.0
    return float(np.mean(np.abs(signal) ** 2))


def awgn_noise(
    num_samples: int,
    noise_power: float,
    *,
    rng: np.random.Generator | None = None,
    complex_valued: bool = True,
) -> np.ndarray:
    """Generate additive white Gaussian noise of the requested mean power."""
    if num_samples < 0:
        raise ValueError("num_samples must be non-negative")
    generator = rng if rng is not None else np.random.default_rng()
    if complex_valued:
        scale = np.sqrt(noise_power / 2.0)
        return scale * (
            generator.standard_normal(num_samples) + 1j * generator.standard_normal(num_samples)
        )
    return np.sqrt(noise_power) * generator.standard_normal(num_samples)


def add_awgn(
    signal: np.ndarray,
    snr_db: float,
    *,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Return *signal* plus AWGN at the requested SNR (relative to signal power)."""
    power = signal_power(signal)
    noise_power = power / db_to_linear(snr_db) if power > 0 else db_to_linear(-snr_db)
    noise = awgn_noise(
        signal.size, noise_power, rng=rng, complex_valued=np.iscomplexobj(signal)
    )
    return signal + noise
