"""Rate-1/2 convolutional code (K = 7) used by 802.11a/g, plus puncturing.

Generator polynomials are the standard 133/171 (octal).  The paper quotes
the two output equations explicitly (§2.4):

    C1[k] = b[k] ^ b[k-2] ^ b[k-3] ^ b[k-5] ^ b[k-6]
    C2[k] = b[k] ^ b[k-1] ^ b[k-2] ^ b[k-3] ^ b[k-6]

The property the downlink construction relies on is that an all-zeros input
encodes to all zeros and an all-ones input (with all-ones history) encodes
to all ones, so whole OFDM symbols of identical scrambled bits survive the
encoder unchanged.

A hard-decision Viterbi decoder is included so the validation receiver can
decode ordinary 802.11g frames.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.bits import as_bit_array
from repro.utils.knobs import integer_knob

__all__ = [
    "CONSTRAINT_LENGTH",
    "ConvolutionalEncoder",
    "ViterbiDecoder",
    "check_initial_state",
    "puncture",
    "depuncture",
    "PUNCTURE_PATTERNS",
]

#: Constraint length of the 802.11 convolutional code.
CONSTRAINT_LENGTH = 7

#: Generator taps, expressed as state-bit masks.  b[k] is the current bit and
#: b[k-1]..b[k-6] the six history bits.
_G1_TAPS = (0, 2, 3, 5, 6)
_G2_TAPS = (0, 1, 2, 3, 6)

#: Encoder states: the six history bits, b[k-1] in bit 0.
_NUM_STATES = 1 << (CONSTRAINT_LENGTH - 1)

#: Puncturing patterns for the higher coding rates (IEEE 802.11-2012 18.3.5.6).
#: Each entry lists, per block of rate-1/2 output pairs, which bits are kept.
PUNCTURE_PATTERNS: dict[str, np.ndarray] = {
    "1/2": np.array([1, 1], dtype=np.uint8),
    "2/3": np.array([1, 1, 1, 0], dtype=np.uint8),
    "3/4": np.array([1, 1, 1, 0, 0, 1], dtype=np.uint8),
}


def check_initial_state(initial_state) -> int:
    """The Viterbi start state *initial_state*, checked the same way by both decoders.

    An encoder state is an integer in 0..63; anything else (``64``, ``-1``,
    ``True``, ``2.0``, ``"1"``) raises
    :class:`~repro.exceptions.ConfigurationError` naming ``initial_state``.
    """
    state = integer_knob("initial_state", initial_state)
    if not 0 <= state < _NUM_STATES:
        raise ConfigurationError(
            f"initial_state must be an encoder state in 0..{_NUM_STATES - 1}, got {initial_state!r}"
        )
    return state


class ConvolutionalEncoder:
    """Rate-1/2, K=7 convolutional encoder with optional history preload.

    Parameters
    ----------
    initial_history:
        Six history bits ``[b[k-1], ..., b[k-6]]`` to preload.  802.11
        encoders start from all zeros at the beginning of a frame; the
        constant-OFDM construction needs to reason about the history carried
        over from the previous symbol (§2.4), which this parameter exposes.
    """

    def __init__(self, initial_history: np.ndarray | None = None) -> None:
        if initial_history is None:
            self._history = [0] * (CONSTRAINT_LENGTH - 1)
        else:
            history = list(as_bit_array(initial_history))
            if len(history) != CONSTRAINT_LENGTH - 1:
                raise ConfigurationError(
                    f"history must have {CONSTRAINT_LENGTH - 1} bits, got {len(history)}"
                )
            self._history = [int(b) for b in history]

    @property
    def history(self) -> tuple[int, ...]:
        """Current history bits ``[b[k-1], ..., b[k-6]]``."""
        return tuple(self._history)

    def encode(self, bits: np.ndarray) -> np.ndarray:
        """Encode *bits*, returning interleaved output pairs ``C1[0] C2[0] C1[1] ...``."""
        arr = as_bit_array(bits)
        out = np.empty(arr.size * 2, dtype=np.uint8)
        history = self._history
        for k, bit in enumerate(arr):
            window = [int(bit)] + history  # window[d] == b[k-d]
            c1 = 0
            for tap in _G1_TAPS:
                c1 ^= window[tap]
            c2 = 0
            for tap in _G2_TAPS:
                c2 ^= window[tap]
            out[2 * k] = c1
            out[2 * k + 1] = c2
            history = [int(bit)] + history[:-1]
        self._history = history
        return out


def puncture(coded_bits: np.ndarray, rate: str) -> np.ndarray:
    """Puncture rate-1/2 coded bits up to 2/3 or 3/4."""
    if rate not in PUNCTURE_PATTERNS:
        raise ConfigurationError(f"unknown coding rate {rate!r}")
    pattern = PUNCTURE_PATTERNS[rate]
    coded = as_bit_array(coded_bits)
    if coded.size % pattern.size != 0:
        raise ValueError(
            f"coded bit count {coded.size} not a multiple of puncture block {pattern.size}"
        )
    mask = np.tile(pattern, coded.size // pattern.size).astype(bool)
    return coded[mask]


def depuncture(punctured_bits: np.ndarray, rate: str) -> tuple[np.ndarray, np.ndarray]:
    """Re-insert erasures for punctured positions.

    Returns
    -------
    (bits, known_mask):
        ``bits`` has zeros at punctured positions; ``known_mask`` marks which
        positions carry real information (used by the Viterbi decoder to
        ignore erasures).
    """
    if rate not in PUNCTURE_PATTERNS:
        raise ConfigurationError(f"unknown coding rate {rate!r}")
    pattern = PUNCTURE_PATTERNS[rate]
    punctured = as_bit_array(punctured_bits)
    kept_per_block = int(np.sum(pattern))
    if punctured.size % kept_per_block != 0:
        raise ValueError(
            f"punctured bit count {punctured.size} not a multiple of {kept_per_block}"
        )
    blocks = punctured.size // kept_per_block
    full = np.zeros(blocks * pattern.size, dtype=np.uint8)
    mask = np.tile(pattern, blocks).astype(bool)
    full[mask] = punctured
    return full, mask


class ViterbiDecoder:
    """Hard-decision Viterbi decoder for the 802.11 K=7 code."""

    def __init__(self) -> None:
        num_states = _NUM_STATES
        self._num_states = num_states
        # Pre-compute per-state, per-input expected output pairs and next states.
        self._next_state = np.zeros((num_states, 2), dtype=np.int32)
        self._outputs = np.zeros((num_states, 2, 2), dtype=np.uint8)
        for state in range(num_states):
            history = [(state >> i) & 1 for i in range(CONSTRAINT_LENGTH - 1)]
            for bit in (0, 1):
                window = [bit] + history
                c1 = 0
                for tap in _G1_TAPS:
                    c1 ^= window[tap]
                c2 = 0
                for tap in _G2_TAPS:
                    c2 ^= window[tap]
                next_history = [bit] + history[:-1]
                next_state = 0
                for i, h in enumerate(next_history):
                    next_state |= h << i
                self._next_state[state, bit] = next_state
                self._outputs[state, bit, 0] = c1
                self._outputs[state, bit, 1] = c2

    def decode(
        self,
        coded_bits: np.ndarray,
        *,
        known_mask: np.ndarray | None = None,
        initial_state: int = 0,
    ) -> np.ndarray:
        """Decode hard bits (``C1 C2`` interleaved) back to data bits.

        Parameters
        ----------
        coded_bits:
            Received coded bits; length must be even.
        known_mask:
            Optional boolean mask (same length) marking which received bits
            are real (False = erasure from depuncturing).
        initial_state:
            Encoder start state in 0..63 (0 for 802.11 frames); see
            :func:`check_initial_state`.
        """
        initial_state = check_initial_state(initial_state)
        coded = as_bit_array(coded_bits)
        if coded.size % 2 != 0:
            raise ValueError("coded bit count must be even")
        if known_mask is None:
            known = np.ones(coded.size, dtype=bool)
        else:
            known = np.asarray(known_mask, dtype=bool).ravel()
            if known.size != coded.size:
                raise ValueError("known_mask length mismatch")
        num_steps = coded.size // 2
        num_states = self._num_states

        metrics = np.full(num_states, np.inf)
        metrics[initial_state] = 0.0
        backpointers = np.zeros((num_steps, num_states), dtype=np.int8)
        predecessors = np.zeros((num_steps, num_states), dtype=np.int32)

        for step in range(num_steps):
            received = coded[2 * step : 2 * step + 2]
            mask = known[2 * step : 2 * step + 2]
            new_metrics = np.full(num_states, np.inf)
            new_back = np.zeros(num_states, dtype=np.int8)
            new_pred = np.zeros(num_states, dtype=np.int32)
            for state in range(num_states):
                metric = metrics[state]
                if not np.isfinite(metric):
                    continue
                for bit in (0, 1):
                    expected = self._outputs[state, bit]
                    cost = 0.0
                    if mask[0] and expected[0] != received[0]:
                        cost += 1.0
                    if mask[1] and expected[1] != received[1]:
                        cost += 1.0
                    nxt = self._next_state[state, bit]
                    candidate = metric + cost
                    if candidate < new_metrics[nxt]:
                        new_metrics[nxt] = candidate
                        new_back[nxt] = bit
                        new_pred[nxt] = state
            metrics = new_metrics
            backpointers[step] = new_back
            predecessors[step] = new_pred

        # Trace back from the best final state.
        state = int(np.argmin(metrics))
        decoded = np.zeros(num_steps, dtype=np.uint8)
        for step in range(num_steps - 1, -1, -1):
            decoded[step] = backpointers[step, state]
            state = int(predecessors[step, state])
        return decoded
