"""Trellis-batched K=7 convolutional encoder and batched Viterbi decoding.

The scalar implementations in :mod:`repro.wifi.ofdm.convolutional` walk the
trellis one state and one bit at a time; decoding N codewords costs
``N × L × 64 × 2`` Python-level iterations.  The batched versions here keep
the *entire* batch's path metrics in one state-major ``[64, N]`` array and
advance all N trellises per step with a handful of array operations, which
is what makes Monte-Carlo PER sweeps over thousands of codewords tractable.

Each step is one add-compare-select over the code's 32 butterflies: next
states ``2j`` and ``2j + 1`` share the predecessors ``j`` and ``j + 32``,
which in the state-major layout are the row blocks ``metrics[:32]`` and
``metrics[32:]``, so no per-step gather is needed.  A step's branch costs
form one ``[4, N]`` table, one row per expected output pair ``c1 c2``.
Both 802.11 generators tap ``b[k]`` and ``b[k-6]``, so a butterfly's four
branches carry one pair and its complement, and one take of 64 table rows
serves both predecessors.  The tables are built a block of steps at a time,
with the same expressions per element as a per-branch cost would use, so
every candidate metric is the same float.

Both functions are bit-exact with their scalar counterparts (including
tie-breaking): the scalar decoder's strict ``<`` update keeps the first
candidate on a tie, and for every next state the two predecessors arrive in
ascending state order, so choosing the higher one only when it is strictly
smaller reproduces the identical survivor choice.  The equivalence tests in
``tests/mc`` assert this across random codewords, erasure masks and start
states.

Memory: the survivor history takes one byte per step, state and codeword
(``steps × 64 × N``); everything else that grows with N is a few
``[64, N]`` float arrays plus the cost tables of one block of steps.

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
    _NUM_STATES,
    check_initial_state,
)

__all__ = ["encode_batch", "BatchViterbiDecoder"]

_HISTORY_BITS = CONSTRAINT_LENGTH - 1
#: Butterflies per trellis step: next states 2j and 2j + 1 share predecessors j and j + 32.
_HALF = _NUM_STATES // 2
#: Trellis steps whose branch-cost tables are built in one vectorised pass.
#: The tables (``steps × 4 × N`` floats) and their temporaries exist one
#: block at a time, so no float array ever spans every step.
_BLOCK_STEPS = 16


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

    ``decode_batch(coded[N, L])`` advances all N trellises together, one
    add-compare-select per step over the 32 butterflies.  Path metrics are
    state-major (``[64, N]``), so the predecessors of every butterfly are
    the two row blocks ``metrics[:32]`` and ``metrics[32:]``, and each
    step's branch costs are one ``[4, N]`` table, one row per expected
    output pair.  A next state keeps its higher predecessor only when that
    candidate is strictly smaller, the scalar decoder's tie rule.
    Survivors take one byte per step, state and codeword; the rest of the
    working set is a few ``[64, N]`` float arrays plus the cost tables of
    one block of ``_BLOCK_STEPS`` steps.
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
        # Next state of (state, bit) is bit | ((state & 0x1F) << 1), so
        # butterfly j joins predecessors j and j + 32 (in that ascending
        # order) to next states 2j (input bit 0) and 2j + 1 (input bit 1).
        # Cost-table row of each branch out of the low predecessor j:
        # [j -> 2j for every j, then j -> 2j + 1].  Both generators tap
        # b[k] and b[k-6], so the branch out of j + 32 on a bit emits the
        # complement of the branch out of j on that bit, which is the
        # branch out of j on the other bit: the high predecessor's rows
        # are the same two halves swapped.
        pair_row = 2 * outputs[:, :, 0] + outputs[:, :, 1]  # [64, 2]
        self._low_rows = np.concatenate([pair_row[:_HALF, 0], pair_row[:_HALF, 1]]).astype(np.intp)
        # Expected C1 and C2 of cost-table row 2·c1 + c2, as bits for the
        # hard metric and as ±1 symbols for the soft one.
        self._pair_bits = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
        self._pair_signs = 2.0 * self._pair_bits.astype(np.float64) - 1.0

    def _branch_costs(self, coded, known, start: int, stop: int, soft: bool):
        """Cost of each expected output pair at steps ``start..stop``: ``[steps, 4, N]``.

        Row ``2·c1 + c2`` of a step holds, per codeword, the masked Hamming
        distance (hard) or negative LLR correlation (soft) between ``c1 c2``
        and the received pair.
        """
        first = coded[:, 2 * start : 2 * stop : 2].T[:, None, :]  # [steps, 1, N]
        second = coded[:, 2 * start + 1 : 2 * stop : 2].T[:, None, :]
        first_known = known[:, 2 * start : 2 * stop : 2].T[:, None, :]
        second_known = known[:, 2 * start + 1 : 2 * stop : 2].T[:, None, :]
        if soft:
            # Masked LLRs: an erased position carries zero evidence.  The
            # negative correlation between the pair's ±1 symbols and the
            # LLRs makes agreeing evidence lower the path metric.
            signs = self._pair_signs[:, :, None]  # [4, 2, 1]
            cost = signs[:, 0] * (first * np.astype(first_known, np.float64))
            cost += signs[:, 1] * (second * np.astype(second_known, np.float64))
            return np.negative(cost, out=cost)
        # The boolean mismatch terms must be cast *before* summing: booleans
        # add as logical OR, which would collapse a two-bit mismatch into a
        # cost of 1.
        bits = self._pair_bits[:, :, None]  # [4, 2, 1]
        cost = np.astype((bits[:, 0] != first) & first_known, np.float64)
        cost += np.astype((bits[:, 1] != second) & second_known, np.float64)
        return cost

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
        simply contributes 0 either way.  ``initial_state`` passes
        :func:`~repro.wifi.ofdm.convolutional.check_initial_state`, as in
        the scalar decoder.
        """
        initial_state = check_initial_state(initial_state)
        if soft:
            coded = _as_matrix(coded_bits, dtype=np.float64, keep_floating=True)
        else:
            coded = _as_bit_matrix(coded_bits)
        n, length = coded.shape
        if length % 2 != 0:
            raise ValueError("coded bit count must be even")
        if known_mask is None:
            known = np.broadcast_to(np.True_, (n, length))
        else:
            known = np.astype(np.asarray(known_mask), np.bool)
            if known.shape == (length,):
                known = np.broadcast_to(known[None, :], (n, length))
            if known.shape != (n, length):
                raise ValueError("known_mask shape mismatch")
        num_steps = length // 2

        with obs.span("mc.viterbi.decode_batch", codewords=int(n), coded_bits=int(length)):
            obs.count("mc.viterbi.codewords_decoded", n)
            decoded = np.zeros((n, num_steps), dtype=np.uint8)
            if num_steps == 0:
                return decoded
            metrics = np.full((_NUM_STATES, n), np.inf)
            metrics[initial_state] = 0.0
            spare = np.empty_like(metrics)
            # survivors[step, s, i] is 1 when next state s of codeword i kept
            # its higher predecessor.  A step's [2, 32, N] butterfly view puts
            # next state 2j + b at [b, j], the layout of low and high below.
            survivors = np.empty((num_steps, _NUM_STATES, n), dtype=np.bool)
            butterfly_survivors = survivors.reshape(num_steps, _HALF, 2, n).transpose(0, 2, 1, 3)
            pair_costs = np.empty((_NUM_STATES, n))
            low_costs = pair_costs.reshape(2, _HALF, n)  # branches out of j, by input bit
            high_costs = low_costs[::-1]  # branches out of j + 32, by input bit
            low = np.empty((2, _HALF, n))
            high = np.empty((2, _HALF, n))
            step = 0
            for start in range(0, num_steps, _BLOCK_STEPS):
                block = self._branch_costs(coded, known, start, min(start + _BLOCK_STEPS, num_steps), soft)
                for table in block:
                    # The rows are in range; mode="clip" lets take write into
                    # out directly instead of through a buffer.
                    np.take(table, self._low_rows, axis=0, out=pair_costs, mode="clip")
                    np.add(metrics[:_HALF], low_costs, out=low)
                    np.add(metrics[_HALF:], high_costs, out=high)
                    # Strict < keeps the lower predecessor on a tie, as the
                    # scalar decoder keeps its first candidate.
                    np.less(high, low, out=butterfly_survivors[step])
                    np.minimum(low, high, out=spare.reshape(_HALF, 2, n).transpose(1, 0, 2))
                    metrics, spare = spare, metrics
                    step += 1

            state = np.argmin(metrics, axis=0)  # [N]; first occurrence, as scalar
            flat_survivors = survivors.reshape(num_steps, -1)
            columns = np.arange(n)
            for step in range(num_steps - 1, -1, -1):
                decoded[:, step] = state & 1
                # survivors[step, state, columns] as one flat take.
                winner = np.take(flat_survivors[step], state * n + columns)
                state = (state >> 1) | (np.astype(winner, np.int64) << (_HISTORY_BITS - 1))
            return decoded
