"""Whole-batch Monte-Carlo sweep driver.

``run_sweep(snr_points, trials, pipeline)`` replaces the one-trial-at-a-time
loops of the PER/BER experiments: a *pipeline* evaluates all ``trials``
realisations of one operating point in a single vectorised call, and the
driver walks the operating points, chunking batches to bound memory.

The reproduction's pipeline is :class:`CodedOfdmPipeline`, the full
batched PHY chain scramble → convolutional encode → puncture → interleave
→ map → AWGN → demap → deinterleave → depuncture → batched Viterbi →
descramble, exercising every kernel in :mod:`repro.mc` at
waveform-accurate coding level without per-trial Python loops.
``decision="soft"`` swaps the hard demapper for
:func:`repro.mc.kernels.demap_soft_batch` LLRs and decodes with the
soft-metric Viterbi (~2 dB at the PER ≈ 10⁻² operating point).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.exceptions import ConfigurationError
from repro.mc.kernels import (
    deinterleave_batch,
    demap_batch,
    demap_soft_batch,
    depuncture_batch,
    interleave_batch,
    map_batch,
    puncture_batch,
    scramble_batch,
)
from repro.mc.viterbi import BatchViterbiDecoder, encode_batch
from repro.obs import metrics as obs
from repro.utils.knobs import finite_positive_knob, integer_knob
from repro.wifi.ofdm.rates import OfdmRate

__all__ = [
    "SweepPipeline",
    "SweepResult",
    "run_sweep",
    "CodedOfdmPipeline",
]


class SweepPipeline(Protocol):
    """One Monte-Carlo experiment, evaluated a whole batch at a time."""

    def run_batch(
        self, snr_db: float, trials: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Return a ``[trials]`` array of per-trial error statistics in [0, 1].

        PER pipelines return 0/1 packet-failure indicators; BER pipelines
        return each trial's bit-error fraction.
        """
        ...


@dataclass(frozen=True)
class SweepResult:
    """Aggregated sweep output.

    Attributes
    ----------
    snr_db:
        Operating points.
    error_rate:
        Mean per-trial error statistic at each point (PER or BER).
    std_error:
        Standard error of that mean (Monte-Carlo confidence half-width ~2×).
    trials:
        Trials per point.
    """

    snr_db: np.ndarray
    error_rate: np.ndarray
    std_error: np.ndarray
    trials: int


def run_sweep(
    snr_points_db: np.ndarray,
    trials: int,
    pipeline: SweepPipeline,
    *,
    rng: np.random.Generator | None = None,
    seed: int = 0,
    max_batch: int = 4096,
) -> SweepResult:
    """Run *pipeline* at every operating point with *trials* realisations each.

    ``rng``, ``seed`` and ``max_batch`` are keyword-only.  ``max_batch`` caps
    the realisations evaluated per vectorised call so arbitrarily large
    trial counts stay within memory (the batched Viterbi's survivor
    history is the dominant allocation: ``steps × N × 64`` bytes).
    ``trials`` and ``max_batch`` are integers of at least 1
    (:func:`~repro.utils.knobs.integer_knob`).
    """
    trials = integer_knob("trials", trials)
    if trials < 1:
        raise ConfigurationError("trials must be at least 1")
    chunk = integer_knob("max_batch", max_batch)
    if chunk < 1:
        raise ConfigurationError("max_batch must be at least 1")
    points = np.atleast_1d(np.asarray(snr_points_db, dtype=float))
    generator = rng if rng is not None else np.random.default_rng(seed)

    error_rate = np.empty(points.size)
    std_error = np.empty(points.size)
    with obs.span(
        "mc.run_sweep",
        pipeline=type(pipeline).__name__,
        points=int(points.size),
        trials=int(trials),
    ):
        for index, snr_db in enumerate(points):
            stats: list[np.ndarray] = []
            remaining = trials
            while remaining > 0:
                batch = min(chunk, remaining)
                obs.count("mc.sweep.batches")
                obs.count("mc.sweep.trials", batch)
                with obs.span("mc.pipeline.run_batch", snr_db=float(snr_db), trials=batch):
                    outcome = pipeline.run_batch(float(snr_db), batch, generator)
                    stats.append(np.asarray(outcome, dtype=float))
                remaining -= batch
            merged = np.concatenate(stats)
            error_rate[index] = float(np.mean(merged))
            std_error[index] = float(np.std(merged) / np.sqrt(merged.size))
    return SweepResult(
        snr_db=points, error_rate=error_rate, std_error=std_error, trials=trials
    )


class CodedOfdmPipeline:
    """Full batched 802.11a/g coding chain over an AWGN symbol channel.

    Each trial is one codeword of ``num_symbols`` OFDM symbols at *rate*.
    ``statistic`` selects what :meth:`run_batch` reports per trial: the
    bit-error fraction (``"ber"``) or a 0/1 codeword-failure flag (``"per"``).
    ``decision`` picks the receiver: ``"hard"`` demaps to bits before the
    Viterbi, ``"soft"`` feeds max-log LLRs into the soft-metric trellis
    (uniformly at-or-below the hard BER; ~2 dB at PER ≈ 10⁻²).
    """

    def __init__(
        self,
        rate: OfdmRate | float = OfdmRate.RATE_36,
        *,
        num_symbols: int = 4,
        statistic: str = "per",
        decision: str = "hard",
    ) -> None:
        if statistic not in ("per", "ber"):
            raise ConfigurationError(f"unknown statistic {statistic!r}")
        if decision not in ("hard", "soft"):
            raise ConfigurationError(f"unknown decision {decision!r}")
        if not isinstance(rate, OfdmRate):
            rate = OfdmRate.from_mbps(finite_positive_knob("rate_mbps", rate))
        self.rate = rate
        self.num_symbols = integer_knob("num_symbols", num_symbols)
        if self.num_symbols < 1:
            raise ConfigurationError("num_symbols must be at least 1")
        self.statistic = statistic
        self.decision = decision
        self._viterbi = BatchViterbiDecoder()

    def run_batch(self, snr_db: float, trials: int, rng: np.random.Generator) -> np.ndarray:
        params = self.rate.parameters
        n_cbps = params.coded_bits_per_symbol
        bps = params.modulation.bits_per_symbol
        data_bits = params.data_bits_per_symbol * self.num_symbols

        message = rng.integers(0, 2, size=(trials, data_bits), dtype=np.uint8)
        seeds = rng.integers(1, 128, size=trials)
        scrambled = scramble_batch(message, seeds)
        coded = encode_batch(scrambled)
        punctured = puncture_batch(coded, params.coding_rate)

        per_symbol = np.reshape(punctured, (trials * self.num_symbols, n_cbps))
        symbols = map_batch(interleave_batch(per_symbol, bps), params.modulation)

        sigma = math.sqrt(10.0 ** (-snr_db / 10.0) / 2.0)
        noise = sigma * (
            rng.standard_normal(symbols.shape) + 1j * rng.standard_normal(symbols.shape)
        )
        received = symbols + noise

        if self.decision == "soft":
            # Total complex noise variance E|n|² = 2σ².
            llrs = demap_soft_batch(received, params.modulation, noise_var=2.0 * sigma**2)
            streams = deinterleave_batch(llrs, bps)
        else:
            streams = deinterleave_batch(demap_batch(received, params.modulation), bps)
        rx_coded = np.reshape(streams, (trials, self.num_symbols * n_cbps))
        full, known = depuncture_batch(rx_coded, params.coding_rate)
        decoded_scrambled = self._viterbi.decode_batch(full, known_mask=known, soft=self.decision == "soft")
        decoded = scramble_batch(decoded_scrambled, seeds)

        bit_errors = np.count_nonzero(decoded != message, axis=1)
        if self.statistic == "per":
            return (bit_errors > 0).astype(float)
        return bit_errors / data_bits
