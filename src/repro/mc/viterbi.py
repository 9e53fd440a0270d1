"""Trellis-batched K=7 convolutional encoder and batched Viterbi decoding.

The scalar implementations in :mod:`repro.wifi.ofdm.convolutional` walk the
trellis one state and one bit at a time; decoding N codewords costs
``N × L × 64 × 2`` Python-level iterations.  The batched versions here keep
the *entire* batch's state metrics in one ``[N, 64]`` array and advance all
N trellises per step with a handful of array operations, which is what makes
Monte-Carlo PER sweeps over thousands of codewords tractable.

Both functions are bit-exact with their scalar counterparts (including
tie-breaking): the scalar decoder's strict ``<`` update keeps the first
candidate on a tie, and for every next state the two predecessors arrive in
ascending state order, so choosing the higher one only when it is strictly
smaller reproduces the identical survivor choice.  The equivalence tests in
``tests/mc`` assert this across random codewords, erasure masks and start
states.

``decode_batch`` also accepts demapper log-likelihood ratios
(``soft=True``): the trellis already carries float path metrics, so the
branch cost simply changes from masked Hamming distance to the negative
correlation ``−Σ (2c−1)·λ`` between the branch's expected coded bits and
the received LLRs (positive LLR ⇒ bit 1, the
:func:`repro.mc.kernels.demap_soft_batch` convention).  Feeding the
hard-decision LLRs ``2r−1`` reproduces the hard decoder's survivors
exactly — the per-step costs differ only by a positive affine map, which
preserves every comparison including ties.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.mc.kernels import _as_matrix
from repro.obs import metrics as obs
from repro.wifi.ofdm.convolutional import (
    CONSTRAINT_LENGTH,
    _G1_TAPS,
    _G2_TAPS,
)

__all__ = ["encode_batch", "BatchViterbiDecoder"]

_NUM_STATES = 1 << (CONSTRAINT_LENGTH - 1)
_HISTORY_BITS = CONSTRAINT_LENGTH - 1


def _as_bit_matrix(bits):
    """Coerce input to a 2-D ``uint8`` 0/1 matrix ``[N, L]``."""
    return _as_matrix(bits, dtype=np.uint8, validate_bits=True)


def encode_batch(bits, *, initial_history=None):
    """Encode ``bits[N, L]`` to interleaved pairs ``C1 C2`` of shape ``[N, 2L]``.

    ``initial_history`` is the ``[b[k-1], ..., b[k-6]]`` preload shared by all
    rows (or per-row when given as ``[N, 6]``); the default all-zeros matches
    the 802.11 frame start, exactly like the scalar encoder.
    """
    arr = _as_bit_matrix(bits)
    n, length = arr.shape
    if initial_history is None:
        history = np.zeros((n, _HISTORY_BITS), dtype=np.uint8)
    else:
        history = np.astype(np.asarray(initial_history), np.uint8)
        if history.ndim == 1:
            history = np.broadcast_to(history[None, :], (n, history.shape[0]))
        if history.shape != (n, _HISTORY_BITS):
            raise ConfigurationError(
                f"history must have {_HISTORY_BITS} bits per row, got shape {history.shape}"
            )
    # padded[:, 6 - d : 6 - d + L] is b[k-d]; column layout [b[k-6] .. b[k-1] b[0] ..].
    padded = np.concat([np.flip(history, axis=1), arr], axis=1)
    c1 = np.zeros((n, length), dtype=np.uint8)
    c2 = np.zeros((n, length), dtype=np.uint8)
    for tap in _G1_TAPS:
        c1 = np.bitwise_xor(c1, padded[:, _HISTORY_BITS - tap : _HISTORY_BITS - tap + length])
    for tap in _G2_TAPS:
        c2 = np.bitwise_xor(c2, padded[:, _HISTORY_BITS - tap : _HISTORY_BITS - tap + length])
    # out[:, 0::2] = c1; out[:, 1::2] = c2
    return np.reshape(np.stack([c1, c2], axis=2), (n, 2 * length))


class BatchViterbiDecoder:
    """Batched Viterbi over many codewords at once (hard or soft decision).

    ``decode_batch(coded[N, L])`` advances all N trellises together: the
    branch metrics for every (predecessor state, input bit) pair are computed
    as one ``[N, 64, 2]`` array per step and the survivor selection is one
    elementwise compare-and-``minimum`` over each next state's two ordered
    predecessors.
    """

    def __init__(self) -> None:
        states = np.arange(_NUM_STATES)
        # Expected C1/C2 for the transition taken *from* each state on each
        # input bit.  window[d] == b[k-d]: bit then the six history bits.
        history = (states[:, None] >> np.arange(_HISTORY_BITS)[None, :]) & 1  # [64, 6]
        outputs = np.zeros((_NUM_STATES, 2, 2), dtype=np.uint8)
        for bit in (0, 1):
            window = np.concatenate(
                [np.full((_NUM_STATES, 1), bit, dtype=np.int64), history], axis=1
            )  # [64, 7]
            c1 = np.zeros(_NUM_STATES, dtype=np.uint8)
            c2 = np.zeros(_NUM_STATES, dtype=np.uint8)
            for tap in _G1_TAPS:
                c1 ^= window[:, tap].astype(np.uint8)
            for tap in _G2_TAPS:
                c2 ^= window[:, tap].astype(np.uint8)
            outputs[:, bit, 0] = c1
            outputs[:, bit, 1] = c2
        self._outputs = outputs
        # Next state of (state, bit) is bit | ((state & 0x1F) << 1), so the
        # two predecessors of next-state s are (s >> 1) and (s >> 1) | 32 —
        # in that (ascending) order, both consuming input bit s & 1.
        next_states = np.arange(_NUM_STATES)
        self._entry_bit = (next_states & 1).astype(np.int64)  # [64]
        self._pred = np.stack(
            [next_states >> 1, (next_states >> 1) | (1 << (_HISTORY_BITS - 1))], axis=1
        )  # [64, 2]
        # Expected output pair of each next state's two incoming branches.
        self._branch_outputs = outputs[self._pred, self._entry_bit[:, None], :]  # [64, 2, 2]
        # ±1 branch symbols for the soft (correlation) metric.
        self._branch_signs = 2.0 * self._branch_outputs.astype(np.float64) - 1.0

    def decode_batch(
        self,
        coded_bits,
        *,
        known_mask=None,
        initial_state: int = 0,
        soft: bool = False,
    ):
        """Decode ``coded_bits[N, L]`` (``C1 C2`` interleaved) to ``[N, L // 2]``.

        With ``soft=False`` the input is hard coded bits; with ``soft=True``
        it is demapper LLRs (positive ⇒ bit 1) and the branch metric is the
        negative LLR correlation.  ``known_mask`` marks real (non-erasure)
        positions exactly as in the scalar decoder and may be ``[L]``
        (shared) or ``[N, L]`` (per row); for LLR input an erased position
        simply contributes 0 either way.
        """
        if soft:
            coded = _as_matrix(coded_bits, dtype=np.float64, keep_floating=True)
        else:
            coded = _as_bit_matrix(coded_bits)
        n, length = coded.shape
        if length % 2 != 0:
            raise ValueError("coded bit count must be even")
        if known_mask is None:
            known = np.ones((n, length), dtype=np.bool)
        else:
            known = np.astype(np.asarray(known_mask), np.bool)
            if known.ndim == 1:
                known = np.broadcast_to(known[None, :], (n, length))
            if known.shape != (n, length):
                raise ValueError("known_mask shape mismatch")
        num_steps = length // 2

        with obs.span("mc.viterbi.decode_batch", codewords=int(n), coded_bits=int(length)):
            obs.count("mc.viterbi.codewords_decoded", n)
            start = np.where(
                np.arange(_NUM_STATES) == initial_state,
                np.zeros(_NUM_STATES, dtype=np.float64),
                np.full(_NUM_STATES, np.inf, dtype=np.float64),
            )
            metrics = np.broadcast_to(start[None, :], (n, _NUM_STATES))
            # Survivor choice per step: which of the two ordered predecessors won.
            choices: list = [None] * num_steps

            branch = self._branch_outputs  # [64, 2, 2]
            signs = self._branch_signs  # [64, 2, 2]
            pred_flat = self._pred.reshape(-1)  # [128]
            if soft:
                # Masked LLRs: an erased position carries zero evidence.
                llrs = coded * np.astype(known, np.float64)
            for step in range(num_steps):
                if soft:
                    lam = llrs[:, 2 * step : 2 * step + 2]  # [N, 2]
                    # Negative correlation between the branch's ±1 coded
                    # symbols and the received LLRs: agreeing evidence
                    # lowers the path metric.
                    cost = -(
                        signs[None, :, :, 0] * lam[:, None, None, 0]
                        + signs[None, :, :, 1] * lam[:, None, None, 1]
                    )  # [N, 64, 2]
                else:
                    r = coded[:, 2 * step : 2 * step + 2]  # [N, 2]
                    m = known[:, 2 * step : 2 * step + 2]  # [N, 2]
                    # Branch cost of each next state's two incoming transitions.
                    # The boolean mismatch terms must be cast *before* summing:
                    # booleans add as logical OR, which would collapse a two-bit
                    # mismatch into a cost of 1.
                    cost = np.astype(
                        (branch[None, :, :, 0] != r[:, None, None, 0]) & m[:, None, None, 0],
                        np.float64,
                    ) + np.astype(
                        (branch[None, :, :, 1] != r[:, None, None, 1]) & m[:, None, None, 1],
                        np.float64,
                    )  # [N, 64, 2]
                # metrics[:, pred] as one flat take over the predecessor table.
                prev = np.reshape(np.take(metrics, pred_flat, axis=1), (n, _NUM_STATES, 2))
                candidates = prev + cost  # [N, 64, 2]
                low = candidates[:, :, 0]
                high = candidates[:, :, 1]
                # Strict < keeps the lower predecessor on a tie.
                choices[step] = np.astype(high < low, np.uint8)
                metrics = np.minimum(low, high)

            state = np.argmin(metrics, axis=1)  # [N]; first occurrence, as scalar
            row_offsets = np.arange(n) * _NUM_STATES
            columns: list = [None] * num_steps
            for step in range(num_steps - 1, -1, -1):
                columns[step] = np.astype(state & 1, np.uint8)
                # choices[step][rows, state] as one flat take.
                winner = np.take(np.reshape(choices[step], (-1,)), row_offsets + state)
                state = (state >> 1) | (np.astype(winner, np.int64) << (_HISTORY_BITS - 1))
            return np.stack(columns, axis=1)
