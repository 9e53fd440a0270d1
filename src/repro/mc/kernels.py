"""Batched bit-level PHY kernels: mapping, interleaving, scrambling, puncturing.

Every function here operates on a whole batch (leading axis) at once and is
bit-exact with the scalar implementation it mirrors:

* :func:`map_batch` / :func:`demap_batch` ↔ :mod:`repro.wifi.ofdm.mapping`
  (the demapper's nearest-level quantiser keeps the scalar ``argmin``
  tie-break: a point exactly between two levels snaps to the lower one);
* :func:`demap_soft_batch` — the LLR-producing variant feeding
  soft-decision Viterbi (max-log per-axis LLRs for the Gray-coded square
  constellations; positive LLR ⇒ bit 1);
* :func:`interleave_batch` / :func:`deinterleave_batch` ↔
  :mod:`repro.wifi.ofdm.interleaver`;
* :func:`scramble_batch` ↔ :class:`repro.wifi.scrambler.Ieee80211Scrambler`
  (keystreams are cached per seed — the x^7+x^4+1 LFSR has only 127 states);
* :func:`puncture_batch` / :func:`depuncture_batch` ↔ the pattern masks of
  :mod:`repro.wifi.ofdm.convolutional`.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.wifi.ofdm.convolutional import PUNCTURE_PATTERNS
from repro.wifi.ofdm.interleaver import interleaver_permutation
from repro.wifi.ofdm.mapping import Modulation, _axis_table
from repro.wifi.scrambler import Ieee80211Scrambler

__all__ = [
    "map_batch",
    "demap_batch",
    "demap_soft_batch",
    "interleave_batch",
    "deinterleave_batch",
    "scramble_batch",
    "puncture_batch",
    "depuncture_batch",
]


def _as_matrix(bits, *, dtype=None, keep_floating: bool = False, validate_bits: bool = False):
    """Coerce input to a 2-D matrix ``[N, L]`` (1-D input becomes one row).

    ``dtype`` is the target dtype; with ``keep_floating`` a real-floating
    input keeps its dtype (LLR rows flow through the bit-plumbing kernels
    unquantised).
    """
    arr = np.asarray(bits)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ConfigurationError(f"expected a [N, L] matrix, got shape {arr.shape}")
    if not (keep_floating and np.isdtype(arr.dtype, "real floating")):
        if dtype is not None and arr.dtype != dtype:
            arr = np.astype(arr, dtype)
    if validate_bits and arr.size and bool(np.any(arr > 1)):
        raise ValueError("bit arrays may only contain 0 and 1")
    return arr


def _axis_tables(bits_per_axis: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(levels ascending, bits-per-level aligned to them, level by bit-group index)."""
    table = _axis_table(bits_per_axis)
    levels = np.array(sorted(table.values()))
    inverse = {v: k for k, v in table.items()}
    level_bits = np.array([inverse[float(level)] for level in levels], dtype=np.uint8)
    by_index = np.zeros(1 << bits_per_axis)
    for bits, level in table.items():
        index = 0
        for position, bit in enumerate(bits):
            index |= bit << (bits_per_axis - 1 - position)
        by_index[index] = level
    return levels, level_bits, by_index


def map_batch(bits, modulation: Modulation):
    """Map coded bits ``[N, L]`` to constellation points ``[N, L / bps]``."""
    arr = _as_matrix(bits, dtype=np.uint8)
    n, length = arr.shape
    bps = modulation.bits_per_symbol
    if length % bps != 0:
        raise ConfigurationError(f"bit count {length} not a multiple of {bps}")
    groups = np.reshape(arr, (n, length // bps, bps))
    if modulation is Modulation.BPSK:
        return np.astype(2.0 * np.astype(groups[:, :, 0], np.float64) - 1.0, np.complex128)
    half = bps // 2
    _, _, by_index = _axis_tables(half)
    weights = np.asarray(1 << np.arange(half - 1, -1, -1), dtype=np.int64)
    i_index = np.matmul(np.astype(groups[:, :, :half], np.int64), weights)
    q_index = np.matmul(np.astype(groups[:, :, half:], np.int64), weights)
    i_level = by_index[i_index]
    q_level = by_index[q_index]
    return (np.astype(i_level, np.complex128) + 1j * np.astype(q_level, np.complex128)) * modulation.normalization


def demap_batch(symbols, modulation: Modulation):
    """Hard-decision demap ``[N, S]`` points back to coded bits ``[N, S * bps]``."""
    sym = _as_matrix(symbols, dtype=np.complex128)
    n, count = sym.shape
    bps = modulation.bits_per_symbol
    if modulation is Modulation.BPSK:
        return np.astype(np.real(sym) > 0, np.uint8)
    half = bps // 2
    levels, level_bits, _ = _axis_tables(half)
    midpoints = (levels[:-1] + levels[1:]) / 2.0
    scaled = sym / modulation.normalization
    # side='left': a point exactly on a midpoint picks the lower level, the
    # same choice the scalar demapper's first-occurrence argmin makes.
    i_bits = level_bits[np.searchsorted(midpoints, np.reshape(np.real(scaled), (-1,)), side="left")]
    q_bits = level_bits[np.searchsorted(midpoints, np.reshape(np.imag(scaled), (-1,)), side="left")]
    out = np.concat([np.reshape(i_bits, (n, count, half)), np.reshape(q_bits, (n, count, half))], axis=2)
    return np.reshape(out, (n, count * bps))


def demap_soft_batch(symbols, modulation: Modulation, *, noise_var: float):
    """Max-log LLRs ``[N, S * bps]`` for received points ``[N, S]``.

    ``noise_var`` is the total complex noise variance E|n|² (twice the
    per-axis variance).  Sign convention: positive LLR ⇒ bit 1, matching
    :meth:`BatchViterbiDecoder.decode_batch` with ``soft=True``; a hard
    decision on the LLR sign reproduces :func:`demap_batch` exactly.

    For the Gray-coded square constellations the I and Q axes are
    independent PAM, so each coded bit's LLR is a per-axis two-minimum
    expression: ``(min_{levels: bit=0} d² − min_{levels: bit=1} d²) /
    noise_var`` with ``d`` the distance from the received coordinate to
    the scaled level.
    """
    if noise_var <= 0:
        raise ConfigurationError(f"noise_var must be positive, got {noise_var}")
    sym = _as_matrix(symbols, dtype=np.complex128)
    n, count = sym.shape
    bps = modulation.bits_per_symbol
    if modulation is Modulation.BPSK:
        return 4.0 * np.real(sym) / noise_var
    half = bps // 2
    levels, level_bits, _ = _axis_tables(half)
    scaled_levels = levels * modulation.normalization
    columns = []
    for coordinate in (np.real(sym), np.imag(sym)):
        distance_sq = (coordinate[:, :, None] - scaled_levels[None, None, :]) ** 2
        for position in range(half):
            zero_levels = np.flatnonzero(level_bits[:, position] == 0)
            one_levels = np.flatnonzero(level_bits[:, position] == 1)
            nearest_zero = np.min(np.take(distance_sq, zero_levels, axis=2), axis=2)
            nearest_one = np.min(np.take(distance_sq, one_levels, axis=2), axis=2)
            columns.append((nearest_zero - nearest_one) / noise_var)
    return np.reshape(np.stack(columns, axis=2), (n, count * bps))


def interleave_batch(bits, bits_per_subcarrier: int):
    """Interleave each row (one OFDM symbol's coded bits) of ``[N, n_cbps]``."""
    arr = _as_matrix(bits, dtype=np.uint8, keep_floating=True)
    perm = interleaver_permutation(arr.shape[1], bits_per_subcarrier)
    # out[:, perm] = arr, as a gather with the inverse permutation.
    return arr[:, np.argsort(perm)]


def deinterleave_batch(bits, bits_per_subcarrier: int):
    """Invert :func:`interleave_batch` row-wise."""
    arr = _as_matrix(bits, dtype=np.uint8, keep_floating=True)
    perm = interleaver_permutation(arr.shape[1], bits_per_subcarrier)
    return arr[:, perm]


_KEYSTREAM_CACHE: dict[int, np.ndarray] = {}


def _keystream(seed: int, length: int) -> np.ndarray:
    cached = _KEYSTREAM_CACHE.get(seed)
    if cached is None or cached.size < length:
        cached = Ieee80211Scrambler(seed).keystream(max(length, 256))
        _KEYSTREAM_CACHE[seed] = cached
    return cached[:length]


def _keystream_table(seeds, rows: int, length: int) -> np.ndarray:
    """LFSR keystreams: ``[length]`` for a shared scalar seed,
    ``[rows, length]`` for per-row seeds."""
    if np.isscalar(seeds):
        return _keystream(int(seeds), length)
    seed_arr = np.asarray(seeds, dtype=np.int64).ravel()
    if seed_arr.size != rows:
        raise ConfigurationError(f"need one seed per row: {seed_arr.size} != {rows}")
    return np.stack([_keystream(int(seed), length) for seed in seed_arr])


def scramble_batch(bits, seeds):
    """Scramble (or descramble) ``[N, L]`` bit rows.

    ``seeds`` is one shared 7-bit seed or a per-row array of them.
    """
    arr = _as_matrix(bits, dtype=np.uint8)
    n, length = arr.shape
    return np.bitwise_xor(arr, _keystream_table(seeds, n, length))


def _survivor_mask(pattern: np.ndarray, width: int) -> np.ndarray:
    """Boolean survivor mask: *pattern* tiled out to *width*."""
    return np.tile(pattern, width // pattern.size).astype(bool)


def puncture_batch(coded_bits, rate: str):
    """Puncture each row of rate-1/2 coded bits up to 2/3 or 3/4."""
    if rate not in PUNCTURE_PATTERNS:
        raise ConfigurationError(f"unknown coding rate {rate!r}")
    pattern = PUNCTURE_PATTERNS[rate]
    coded = _as_matrix(coded_bits, dtype=np.uint8, keep_floating=True)
    if coded.shape[1] % pattern.size != 0:
        raise ValueError(
            f"coded bit count {coded.shape[1]} not a multiple of puncture block {pattern.size}"
        )
    mask = _survivor_mask(pattern, coded.shape[1])
    return coded[:, mask]


def depuncture_batch(punctured_bits, rate: str):
    """Re-insert erasures row-wise; returns ``(bits[N, L], known_mask[L])``.

    Hard bit rows come back zero-filled ``uint8``; real-floating rows
    (LLRs) keep their dtype with erasures at LLR 0 — the "no information"
    value — and ``known_mask`` is a bool array.
    """
    if rate not in PUNCTURE_PATTERNS:
        raise ConfigurationError(f"unknown coding rate {rate!r}")
    pattern = PUNCTURE_PATTERNS[rate]
    punctured = _as_matrix(punctured_bits, dtype=np.uint8, keep_floating=True)
    kept_per_block = int(pattern.sum())
    if punctured.shape[1] % kept_per_block != 0:
        raise ValueError(
            f"punctured bit count {punctured.shape[1]} not a multiple of {kept_per_block}"
        )
    blocks = punctured.shape[1] // kept_per_block
    mask = _survivor_mask(pattern, blocks * pattern.size)
    full = np.zeros((punctured.shape[0], mask.size), dtype=punctured.dtype)
    full[:, mask] = punctured
    return full, mask
