"""Tests for the OFDM interleaver, constellation mapping and symbol builder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.wifi.ofdm.interleaver import deinterleave, interleave, interleaver_permutation
from repro.wifi.ofdm.mapping import Modulation, demap_symbols, map_bits
from repro.wifi.ofdm.rates import OFDM_RATE_PARAMETERS, OfdmRate
from repro.wifi.ofdm.symbols import (
    DATA_SUBCARRIER_INDICES,
    OFDM_SYMBOL_DURATION_S,
    OfdmSymbolBuilder,
    PILOT_SUBCARRIER_INDICES,
)


class TestInterleaver:
    @pytest.mark.parametrize("n_cbps,n_bpsc", [(48, 1), (96, 2), (192, 4), (288, 6)])
    def test_roundtrip(self, n_cbps, n_bpsc, rng):
        bits = rng.integers(0, 2, n_cbps).astype(np.uint8)
        assert np.array_equal(deinterleave(interleave(bits, n_bpsc), n_bpsc), bits)

    def test_permutation_is_bijection(self):
        perm = interleaver_permutation(192, 4)
        assert sorted(perm.tolist()) == list(range(192))

    def test_constant_block_invariant(self):
        # The §2.4 argument: all-ones interleaves to all-ones.
        ones = np.ones(192, dtype=np.uint8)
        assert np.all(interleave(ones, 4) == 1)
        assert np.all(interleave(1 - ones, 4) == 0)

    def test_adjacent_bits_spread(self):
        perm = interleaver_permutation(48, 1)
        assert abs(int(perm[1]) - int(perm[0])) > 1

    def test_invalid_size(self):
        with pytest.raises(ConfigurationError):
            interleaver_permutation(50, 1)


class TestMapping:
    @pytest.mark.parametrize("modulation", list(Modulation))
    def test_roundtrip(self, modulation, rng):
        bits = rng.integers(0, 2, modulation.bits_per_symbol * 48).astype(np.uint8)
        symbols = map_bits(bits, modulation)
        assert np.array_equal(demap_symbols(symbols, modulation), bits)

    @pytest.mark.parametrize("modulation", list(Modulation))
    def test_unit_average_energy(self, modulation, rng):
        bits = rng.integers(0, 2, modulation.bits_per_symbol * 4800).astype(np.uint8)
        symbols = map_bits(bits, modulation)
        assert np.mean(np.abs(symbols) ** 2) == pytest.approx(1.0, rel=0.05)

    def test_constant_bits_map_to_single_point(self):
        bits = np.ones(48 * 4, dtype=np.uint8)
        symbols = map_bits(bits, Modulation.QAM16)
        assert np.allclose(symbols, symbols[0])

    def test_bit_count_check(self):
        with pytest.raises(ConfigurationError):
            map_bits(np.ones(5, dtype=np.uint8), Modulation.QAM16)

    def test_bits_per_symbol(self):
        assert [m.bits_per_symbol for m in Modulation] == [1, 2, 4, 6]


class TestRates:
    def test_36mbps_parameters(self):
        params = OfdmRate.RATE_36.parameters
        assert params.modulation is Modulation.QAM16
        assert params.coding_rate == "3/4"
        assert params.data_bits_per_symbol == 144

    def test_all_rates_consistent(self):
        for params in OFDM_RATE_PARAMETERS.values():
            assert params.coded_bits_per_symbol == 48 * params.modulation.bits_per_symbol
            numerator, denominator = params.coding_rate.split("/")
            expected = params.coded_bits_per_symbol * int(numerator) // int(denominator)
            assert params.data_bits_per_symbol == expected

    def test_from_mbps_unknown(self):
        with pytest.raises(ConfigurationError):
            OfdmRate.from_mbps(33.0)


class TestSymbolBuilder:
    def test_symbol_duration(self):
        assert OFDM_SYMBOL_DURATION_S == pytest.approx(4e-6)

    def test_subcarrier_counts(self):
        assert len(DATA_SUBCARRIER_INDICES) == 48
        assert len(PILOT_SUBCARRIER_INDICES) == 4

    def test_build_split_roundtrip(self, rng):
        builder = OfdmSymbolBuilder()
        points = (rng.standard_normal(48) + 1j * rng.standard_normal(48)) / np.sqrt(2)
        samples = builder.build_symbol(points, symbol_index=0)
        assert samples.size == 80
        recovered = builder.split_symbol(samples)
        assert np.allclose(recovered, points, atol=1e-9)

    def test_cyclic_prefix_is_copy_of_tail(self, rng):
        builder = OfdmSymbolBuilder()
        points = rng.standard_normal(48).astype(complex)
        samples = builder.build_symbol(points, symbol_index=3)
        assert np.allclose(samples[:16], samples[-16:])

    def test_constant_symbol_is_impulse_like(self):
        builder = OfdmSymbolBuilder()
        points = np.full(48, 1.0 + 1.0j) / np.sqrt(2.0)
        samples = builder.build_symbol(points, symbol_index=0)
        power = np.abs(samples) ** 2
        # Most energy concentrated in very few samples (Fig. 7).
        assert np.max(power) / np.mean(power) > 20.0

    def test_wrong_point_count(self):
        with pytest.raises(ConfigurationError):
            OfdmSymbolBuilder().build_symbol(np.ones(40, dtype=complex), 0)

    def test_pilot_extraction(self, rng):
        builder = OfdmSymbolBuilder()
        points = rng.standard_normal(48).astype(complex)
        samples = builder.build_symbol(points, symbol_index=0)
        pilots = builder.pilot_points(samples)
        assert pilots.size == 4
        assert np.allclose(np.abs(pilots), 1.0, atol=1e-9)
