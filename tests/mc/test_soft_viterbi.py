"""Tests for soft-decision batched Viterbi and the LLR demapper."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.mc.kernels import demap_batch, demap_soft_batch, depuncture_batch, puncture_batch
from repro.mc.sweep import CodedOfdmPipeline, run_sweep
from repro.mc.viterbi import BatchViterbiDecoder, encode_batch
from repro.wifi.ofdm.mapping import Modulation
from repro.wifi.ofdm.rates import OfdmRate


def _reference_soft_viterbi(llrs, initial_state=0):
    """Plain soft Viterbi over masked ``llrs[N, L]`` from *initial_state*, survivors by ``np.argmin``.

    Returns the decoded bits and the number of finite candidate ties met.
    """
    n, length = llrs.shape
    states = np.arange(64)
    pred = np.stack([states >> 1, (states >> 1) | 32], axis=1)  # [64, 2]
    # ±1 coded symbols of the transition pred[s, j] -> s (input bit s & 1).
    signs = np.empty((64, 2, 2))
    for state in states:
        for j, source in enumerate(pred[state]):
            history = np.array([(source >> d) & 1 for d in range(6)], dtype=np.uint8)
            bit = np.array([[state & 1]], dtype=np.uint8)
            signs[state, j] = 2.0 * encode_batch(bit, initial_history=history)[0] - 1.0
    metrics = np.full((n, 64), np.inf)
    metrics[:, initial_state] = 0.0
    choices, ties = [], 0
    for step in range(length // 2):
        lam = llrs[:, 2 * step : 2 * step + 2]
        cost = -(signs[None, :, :, 0] * lam[:, None, None, 0] + signs[None, :, :, 1] * lam[:, None, None, 1])
        candidates = metrics[:, pred] + cost  # [N, 64, 2]
        ties += int(np.sum((candidates[..., 0] == candidates[..., 1]) & np.isfinite(candidates[..., 0])))
        choices.append(np.argmin(candidates, axis=2))
        metrics = np.min(candidates, axis=2)
    state = np.argmin(metrics, axis=1)
    decoded = np.zeros((n, length // 2), dtype=np.uint8)
    for step in range(length // 2 - 1, -1, -1):
        decoded[:, step] = state & 1
        state = pred[state, choices[step][np.arange(n), state]]
    return decoded, ties


class TestLlrDemapper:
    @pytest.mark.parametrize(
        "modulation", [Modulation.BPSK, Modulation.QPSK, Modulation.QAM16, Modulation.QAM64]
    )
    def test_llr_sign_matches_hard_decision(self, modulation):
        # Positive LLR ⇔ bit 1, so thresholding the LLRs at zero must
        # reproduce the hard demapper on noisy symbols.
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, size=(16, 24 * modulation.bits_per_symbol), dtype=np.uint8)
        from repro.mc.kernels import map_batch

        symbols = map_batch(bits, modulation)
        noisy = symbols + 0.05 * (rng.standard_normal(symbols.shape) + 1j * rng.standard_normal(symbols.shape))
        hard = demap_batch(noisy, modulation)
        llrs = demap_soft_batch(noisy, modulation, noise_var=0.5)
        np.testing.assert_array_equal((llrs > 0).astype(np.uint8), hard)

    def test_noise_var_scales_confidence_not_sign(self):
        rng = np.random.default_rng(9)
        bits = rng.integers(0, 2, size=(4, 48), dtype=np.uint8)
        from repro.mc.kernels import map_batch

        symbols = map_batch(bits, Modulation.QPSK)
        crisp = demap_soft_batch(symbols, Modulation.QPSK, noise_var=0.1)
        fuzzy = demap_soft_batch(symbols, Modulation.QPSK, noise_var=1.0)
        np.testing.assert_array_equal(np.sign(crisp), np.sign(fuzzy))
        assert np.all(np.abs(crisp) > np.abs(fuzzy))

    def test_noise_var_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="noise_var"):
            demap_soft_batch(np.zeros((1, 2), dtype=complex), Modulation.QPSK, noise_var=0.0)


class TestSoftDecoder:
    def test_soft_with_antipodal_llrs_equals_hard(self):
        # Equal-magnitude ±1 LLRs carry exactly the hard bits' information:
        # each step's soft branch cost is a positive affine map of the hard
        # mismatch count, so the trellis decisions (ties included) must
        # coincide — even with real bit errors in the stream.
        rng = np.random.default_rng(13)
        bits = rng.integers(0, 2, size=(12, 96), dtype=np.uint8)
        flipped = encode_batch(bits) ^ (rng.random((12, 192)) < 0.06).astype(np.uint8)
        decoder = BatchViterbiDecoder()
        hard = decoder.decode_batch(flipped)
        soft = decoder.decode_batch(2.0 * flipped.astype(np.float64) - 1.0, soft=True)
        np.testing.assert_array_equal(hard, soft)

    def test_soft_equals_hard_under_erasure_mask(self):
        rng = np.random.default_rng(17)
        bits = rng.integers(0, 2, size=(6, 72), dtype=np.uint8)
        punctured = puncture_batch(encode_batch(bits), "3/4")
        punctured = punctured ^ (rng.random(punctured.shape) < 0.03).astype(np.uint8)
        full, known = depuncture_batch(punctured, "3/4")
        decoder = BatchViterbiDecoder()
        hard = decoder.decode_batch(full, known_mask=known)
        llrs = (2.0 * full.astype(np.float64) - 1.0) * known
        soft = decoder.decode_batch(llrs, known_mask=known, soft=True)
        np.testing.assert_array_equal(hard, soft)

    def test_soft_select_matches_first_occurrence_reference_with_ties(self):
        # Small integer LLRs with exact zeros and erasures make the two
        # candidates of a next state tie often; the decoder must keep the
        # lower predecessor on every tie, as first-occurrence argmin does.
        rng = np.random.default_rng(23)
        llrs = rng.integers(-2, 3, size=(16, 120)).astype(np.float64)
        llrs[rng.random(llrs.shape) < 0.15] = 0.0
        known = rng.random(llrs.shape) >= 0.2
        decoded = BatchViterbiDecoder().decode_batch(llrs, known_mask=known, soft=True)
        reference, ties = _reference_soft_viterbi(llrs * known)
        assert ties > 1000
        np.testing.assert_array_equal(decoded, reference)

    @pytest.mark.parametrize("initial_state", [0, 17, 63])
    @pytest.mark.parametrize("steps", [1, 31, 32, 33, 97])
    def test_soft_matches_reference_from_any_start_state(self, initial_state, steps):
        # Noisy Gaussian LLRs of codewords that start in *initial_state*,
        # with about a fifth of the positions erased; the step counts
        # straddle the decoder's cost-table blocks.
        rng = np.random.default_rng(1000 * initial_state + steps)
        history = np.array([(initial_state >> d) & 1 for d in range(6)], dtype=np.uint8)
        bits = rng.integers(0, 2, size=(24, steps), dtype=np.uint8)
        symbols = 2.0 * encode_batch(bits, initial_history=history).astype(np.float64) - 1.0
        sigma = 0.9
        llrs = 2.0 * (symbols + sigma * rng.standard_normal(symbols.shape)) / sigma**2
        known = rng.random(llrs.shape) >= 0.2
        decoded = BatchViterbiDecoder().decode_batch(llrs, known_mask=known, soft=True, initial_state=initial_state)
        reference, _ = _reference_soft_viterbi(llrs * known, initial_state)
        np.testing.assert_array_equal(decoded, reference)

    def test_confident_llrs_decode_noiselessly(self):
        rng = np.random.default_rng(19)
        bits = rng.integers(0, 2, size=(4, 48), dtype=np.uint8)
        llrs = 8.0 * (2.0 * encode_batch(bits).astype(np.float64) - 1.0)
        decoded = BatchViterbiDecoder().decode_batch(llrs, soft=True)
        np.testing.assert_array_equal(decoded, bits)


class TestSoftVsHardSweep:
    def test_soft_ber_at_or_below_hard_across_snr_grid(self):
        # Paired comparison: the pipeline draws message and noise before
        # the decision branch, so the same seed gives both receivers
        # identical channel realisations.
        points = np.arange(1.0, 7.0, 1.0)
        trials = 96
        curves = {}
        for decision in ("hard", "soft"):
            pipeline = CodedOfdmPipeline(
                OfdmRate.RATE_12, num_symbols=2, statistic="ber", decision=decision
            )
            curves[decision] = run_sweep(points, trials, pipeline, seed=2016).error_rate
        assert np.all(curves["soft"] <= curves["hard"])
        # And the advantage is real, not a tie across the board.
        assert curves["soft"].sum() < curves["hard"].sum()

    def test_decision_validated(self):
        with pytest.raises(ConfigurationError, match="decision"):
            CodedOfdmPipeline(OfdmRate.RATE_12, decision="fuzzy")
