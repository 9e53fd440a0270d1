"""The tag's ultra-low-power downlink receiver: a peak detector (§2.4).

A peak detector tracks the envelope of the 802.11g OFDM waveform; constant
OFDM symbols create low-envelope gaps the detector turns into bits at
125 kbps.  It is modelled as magnitude → fast-attack / slow-decay envelope
→ per-symbol comparison, with a sensitivity floor (the paper's
off-the-shelf prototype has a −32 dBm sensitivity at 160 kbps).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["PeakDetectorReceiver"]


class PeakDetectorReceiver:
    """Passive peak-tracking receiver for the OFDM AM downlink (§2.4).

    The receiver tracks the envelope with a fast-attack / slow-decay peak
    detector and compares the *per-OFDM-symbol* energy against a running
    threshold: a constant OFDM symbol (impulse-like, low average envelope)
    reads as a gap.  Each downlink bit spans two OFDM symbols — random +
    constant = 1, random + random = 0 (Fig. 8).

    Parameters
    ----------
    sample_rate_hz:
        Sample rate of the OFDM waveform (20 MHz at baseband).
    sensitivity_dbm:
        Sensitivity floor; inputs below it are treated as pure noise
        (paper: −32 dBm for the off-the-shelf prototype).
    attack_time_s / decay_time_s:
        Peak-detector time constants.
    """

    def __init__(
        self,
        sample_rate_hz: float = 20_000_000.0,
        *,
        sensitivity_dbm: float = -32.0,
        attack_time_s: float = 0.1e-6,
        decay_time_s: float = 0.5e-6,
    ) -> None:
        if sample_rate_hz <= 0:
            raise ConfigurationError("sample_rate_hz must be positive")
        self.sample_rate_hz = sample_rate_hz
        self.sensitivity_dbm = sensitivity_dbm
        self.attack_time_s = attack_time_s
        self.decay_time_s = decay_time_s

    def envelope(self, waveform: np.ndarray) -> np.ndarray:
        """Fast-attack / slow-decay envelope of the waveform magnitude."""
        magnitude = np.abs(np.asarray(waveform, dtype=complex).ravel())
        attack = 1.0 - np.exp(-1.0 / (self.sample_rate_hz * self.attack_time_s))
        decay = 1.0 - np.exp(-1.0 / (self.sample_rate_hz * self.decay_time_s))
        out = np.empty_like(magnitude)
        state = 0.0
        for index, value in enumerate(magnitude):
            coefficient = attack if value > state else decay
            state += coefficient * (value - state)
            out[index] = state
        return out

    def symbol_envelope_metric(
        self, waveform: np.ndarray, samples_per_symbol: int, num_symbols: int, start_sample: int = 0
    ) -> np.ndarray:
        """Median envelope of each OFDM symbol (robust to the CP impulse)."""
        envelope = self.envelope(waveform)
        metrics = np.zeros(num_symbols)
        for index in range(num_symbols):
            begin = start_sample + index * samples_per_symbol
            end = begin + samples_per_symbol
            if end > envelope.size:
                break
            segment = envelope[begin:end]
            # Skip the first quarter of the symbol: a constant symbol's energy
            # (and the preceding symbol's decaying envelope) is concentrated
            # there; the tail is where constant and random symbols differ most.
            metrics[index] = float(np.median(segment[samples_per_symbol // 4 :]))
        return metrics

    def decode_bits(
        self,
        waveform: np.ndarray,
        *,
        samples_per_symbol: int,
        num_symbols: int,
        start_sample: int = 0,
        rssi_dbm: float | None = None,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Decode downlink bits from an OFDM waveform.

        Symbols are consumed in pairs (Fig. 8): the second symbol of each
        pair is classified as constant (bit 1) or random (bit 0) by
        comparing its envelope metric against the first symbol's.
        """
        if rssi_dbm is not None and rssi_dbm < self.sensitivity_dbm:
            # Below sensitivity the comparator output is noise: random bits.
            generator = rng if rng is not None else np.random.default_rng()
            return generator.integers(0, 2, num_symbols // 2).astype(np.uint8)
        metrics = self.symbol_envelope_metric(
            waveform, samples_per_symbol, num_symbols, start_sample
        )
        bits = np.zeros(num_symbols // 2, dtype=np.uint8)
        for pair in range(num_symbols // 2):
            reference = metrics[2 * pair]
            candidate = metrics[2 * pair + 1]
            # A constant symbol's envelope collapses well below the preceding
            # random symbol's; 0.5 is the comparator's relative threshold.
            bits[pair] = 1 if candidate < 0.5 * reference else 0
        return bits
