"""Tests for the 802.11 scrambler."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ble.whitening import whitening_sequence
from repro.exceptions import ConfigurationError
from repro.wifi.scrambler import Ieee80211Scrambler

#: The 127-bit sequence the standard lists for the all-ones initial state
#: (IEEE 802.11-2012, 18.3.5.5), leftmost bit first.
IEEE_ALL_ONES_SEQUENCE = (
    "00001110 11110010 11001001 00000010 00100110 00101110 10110110 00001100 "
    "11010100 11100111 10110100 00101010 11111010 01010001 10111000 1111111"
).replace(" ", "")


def _bit_string(bits) -> str:
    return "".join(str(int(bit)) for bit in bits)


class TestScrambler:
    def test_scramble_is_involution(self, rng):
        data = rng.integers(0, 2, 500).astype(np.uint8)
        scrambled = Ieee80211Scrambler(0x5D).scramble(data)
        recovered = Ieee80211Scrambler(0x5D).scramble(scrambled)
        assert np.array_equal(recovered, data)

    def test_different_seeds_differ(self):
        zeros = np.zeros(64, dtype=np.uint8)
        a = Ieee80211Scrambler(0x11).scramble(zeros)
        b = Ieee80211Scrambler(0x12).scramble(zeros)
        assert not np.array_equal(a, b)

    def test_keystream_period_127(self):
        keystream = Ieee80211Scrambler(0x01).keystream(254)
        assert np.array_equal(keystream[:127], keystream[127:])

    def test_keystream_balanced(self):
        # A maximal-length 7-bit LFSR emits 64 ones and 63 zeros per period.
        keystream = Ieee80211Scrambler(0x2A).keystream(127)
        assert keystream.sum() == 64

    def test_all_ones_seed_matches_the_standard(self):
        assert _bit_string(Ieee80211Scrambler(0x7F).keystream(127)) == IEEE_ALL_ONES_SEQUENCE

    def test_keystream_obeys_the_x7_x4_recurrence(self):
        keystream = Ieee80211Scrambler(0x5D).keystream(300)
        assert np.array_equal(keystream[7:], keystream[:-7] ^ keystream[3:-4])

    def test_every_seed_is_a_distinct_phase_of_one_m_sequence(self):
        # A maximal-length register visits all 127 non-zero states, so the
        # 127 seeds start the same sequence at 127 different offsets.
        doubled = IEEE_ALL_ONES_SEQUENCE * 2
        offsets = {doubled.find(_bit_string(Ieee80211Scrambler(seed).keystream(127))) for seed in range(1, 128)}
        assert len(offsets) == 127
        assert -1 not in offsets

    @pytest.mark.parametrize("channel", [37, 38, 39])
    def test_ble_whitening_runs_the_same_sequence_backwards(self, channel):
        # Fig. 4: BLE whitening and the 802.11 scrambler share x^7 + x^4 + 1.
        # The BLE register shifts the other way, so its output is the
        # 802.11 m-sequence read in reverse, from a channel-dependent phase.
        whitening = _bit_string(whitening_sequence(channel, 127).bits)
        assert whitening[::-1] in IEEE_ALL_ONES_SEQUENCE * 2

    def test_scrambling_in_chunks_continues_the_keystream(self, rng):
        data = rng.integers(0, 2, 200).astype(np.uint8)
        whole = Ieee80211Scrambler(0x21).scramble(data)
        scrambler = Ieee80211Scrambler(0x21)
        chunked = np.concatenate([scrambler.scramble(data[:77]), scrambler.scramble(data[77:])])
        assert np.array_equal(chunked, whole)

    def test_negative_keystream_length_rejected(self):
        with pytest.raises(ValueError):
            Ieee80211Scrambler().keystream(-1)

    def test_zero_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            Ieee80211Scrambler(0)

    def test_large_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            Ieee80211Scrambler(0x80)

    def test_reset_restores_sequence(self):
        scrambler = Ieee80211Scrambler(0x33)
        first = scrambler.keystream(32)
        scrambler.reset()
        assert np.array_equal(scrambler.keystream(32), first)

    def test_reset_with_new_seed(self):
        scrambler = Ieee80211Scrambler(0x33)
        scrambler.reset(0x44)
        assert scrambler.seed == 0x44

    def test_reset_rejects_invalid_seed(self):
        scrambler = Ieee80211Scrambler(0x33)
        with pytest.raises(ConfigurationError):
            scrambler.reset(0)
        assert scrambler.seed == 0x33

    @given(st.integers(min_value=1, max_value=127))
    def test_property_all_seeds_produce_nonzero_keystreams(self, seed):
        keystream = Ieee80211Scrambler(seed).keystream(127)
        assert 0 < keystream.sum() < 127

    @given(st.integers(min_value=1, max_value=127), st.integers(min_value=1, max_value=127))
    def test_property_seed_recoverable_from_first_seven_bits(self, seed, other):
        # The downlink relies on inverting the scrambler from the SERVICE field.
        first = Ieee80211Scrambler(seed).keystream(7)
        second = Ieee80211Scrambler(other).keystream(7)
        if seed != other:
            assert not np.array_equal(first, second)
