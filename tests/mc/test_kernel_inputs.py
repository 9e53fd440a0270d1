"""Input coercion and validation of the batched PHY kernels.

The kernels accept any array-like of rows: 1-D input is one row, wider
integer bits narrow to ``uint8``, and malformed batches fail loudly with the
same exception types as the scalar implementations they mirror.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.mc import (
    BatchViterbiDecoder,
    depuncture_batch,
    encode_batch,
    interleave_batch,
    map_batch,
    puncture_batch,
    scramble_batch,
)
from repro.wifi.ofdm.convolutional import ViterbiDecoder, puncture
from repro.wifi.ofdm.mapping import Modulation

ROW_KERNELS = {
    "map": lambda bits: map_batch(bits, Modulation.BPSK),
    "scramble": lambda bits: scramble_batch(bits, 93),
    "interleave": lambda bits: interleave_batch(bits, 1),
    "puncture": lambda bits: puncture_batch(bits, "3/4"),
    "encode": encode_batch,
}


class TestMatrixCoercion:
    def test_one_dimensional_bits_become_one_row(self):
        bits = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
        symbols = map_batch(bits, Modulation.QPSK)
        assert symbols.shape == (1, 4)
        np.testing.assert_array_equal(symbols, map_batch(bits[None, :], Modulation.QPSK))

    def test_wider_integer_bits_narrow_to_uint8(self, rng):
        bits = rng.integers(0, 2, size=(3, 48))
        scrambled = scramble_batch(bits, 93)
        assert scrambled.dtype == np.uint8
        np.testing.assert_array_equal(scrambled, scramble_batch(bits.astype(np.uint8), 93))
        np.testing.assert_array_equal(encode_batch(bits), encode_batch(bits.astype(np.uint8)))

    @pytest.mark.parametrize("kernel", list(ROW_KERNELS.values()), ids=list(ROW_KERNELS))
    def test_three_dimensional_input_rejected(self, kernel):
        with pytest.raises(ConfigurationError, match=r"expected a \[N, L\] matrix"):
            kernel(np.zeros((2, 3, 48), dtype=np.uint8))


class TestBitValidation:
    @pytest.mark.parametrize("value", [2, -1])
    def test_encoder_rejects_non_binary_values(self, value):
        bits = np.array([[0, 1, value, 0]])
        with pytest.raises(ValueError, match="only contain 0 and 1"):
            encode_batch(bits)

    def test_hard_decoder_rejects_non_binary_values(self):
        coded = np.zeros((1, 12), dtype=np.uint8)
        coded[0, 5] = 3
        with pytest.raises(ValueError, match="only contain 0 and 1"):
            BatchViterbiDecoder().decode_batch(coded)


class TestShapeValidation:
    def test_map_rejects_a_partial_symbol(self):
        with pytest.raises(ConfigurationError, match="not a multiple of 2"):
            map_batch(np.zeros((2, 5), dtype=np.uint8), Modulation.QPSK)

    def test_scramble_needs_one_seed_per_row(self):
        with pytest.raises(ConfigurationError, match="one seed per row: 2 != 3"):
            scramble_batch(np.zeros((3, 16), dtype=np.uint8), [1, 2])

    @pytest.mark.parametrize("kernel", [puncture_batch, depuncture_batch])
    def test_unknown_coding_rate_rejected(self, kernel):
        with pytest.raises(ConfigurationError, match="unknown coding rate '5/6'"):
            kernel(np.zeros((1, 12), dtype=np.uint8), "5/6")

    def test_puncture_needs_whole_blocks_like_the_scalar_path(self):
        bits = np.zeros(8, dtype=np.uint8)
        with pytest.raises(ValueError, match="not a multiple of puncture block 6"):
            puncture_batch(bits, "3/4")
        with pytest.raises(ValueError):
            puncture(bits, "3/4")

    def test_depuncture_needs_whole_blocks(self):
        with pytest.raises(ValueError, match="punctured bit count 5 not a multiple of 4"):
            depuncture_batch(np.zeros((1, 5), dtype=np.uint8), "3/4")

    @pytest.mark.parametrize("shape", [(5,), (3, 6)], ids=["short-shared", "wrong-row-count"])
    def test_encoder_history_shape_checked(self, shape):
        with pytest.raises(ConfigurationError, match="history must have 6 bits per row"):
            encode_batch(np.zeros((2, 8), dtype=np.uint8), initial_history=np.zeros(shape))

    def test_decoder_known_mask_shape_checked(self):
        coded = np.zeros((2, 20), dtype=np.uint8)
        with pytest.raises(ValueError, match="known_mask shape mismatch"):
            BatchViterbiDecoder().decode_batch(coded, known_mask=np.ones((3, 20), dtype=bool))

    @pytest.mark.parametrize("length", [10, 19, 21])
    def test_decoder_shared_known_mask_length_checked(self, length):
        # A shared mask covers every coded bit; a wrong length used to fail
        # inside np.broadcast_to with numpy's own message.
        coded = np.zeros((2, 20), dtype=np.uint8)
        with pytest.raises(ValueError, match="known_mask shape mismatch"):
            BatchViterbiDecoder().decode_batch(coded, known_mask=np.ones(length, dtype=bool))


DECODERS = {
    "scalar": lambda coded, state: ViterbiDecoder().decode(coded[0], initial_state=state),
    "batched": lambda coded, state: BatchViterbiDecoder().decode_batch(coded, initial_state=state),
}


class TestViterbiStartState:
    @pytest.mark.parametrize("decode", list(DECODERS.values()), ids=list(DECODERS))
    @pytest.mark.parametrize("state", [64, -1, True, 2.0, "1"])
    def test_both_decoders_reject_what_is_not_an_encoder_state(self, decode, state):
        coded = np.zeros((1, 12), dtype=np.uint8)
        with pytest.raises(ConfigurationError, match="initial_state"):
            decode(coded, state)

    @pytest.mark.parametrize("decode", list(DECODERS.values()), ids=list(DECODERS))
    def test_numpy_integer_states_are_accepted(self, decode):
        coded = np.zeros((1, 12), dtype=np.uint8)
        np.testing.assert_array_equal(np.ravel(decode(coded, np.int64(0))), np.zeros(6, dtype=np.uint8))


class TestEmptyCodeword:
    @pytest.mark.parametrize("rows", [0, 3])
    @pytest.mark.parametrize("soft", [False, True], ids=["hard", "soft"])
    def test_empty_codewords_decode_to_nothing(self, rows, soft):
        decoded = BatchViterbiDecoder().decode_batch(np.zeros((rows, 0), dtype=np.uint8), soft=soft)
        assert decoded.shape == (rows, 0)
        assert decoded.dtype == np.uint8

    def test_scalar_decoder_agrees(self):
        assert ViterbiDecoder().decode(np.zeros(0, dtype=np.uint8)).size == 0
