"""Tests for the Gaussian pulse-shaping filter."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.pulse_shaping import gaussian_filter_taps


class TestGaussianFilter:
    def test_unit_sum(self):
        taps = gaussian_filter_taps(0.5, 8)
        assert np.sum(taps) == pytest.approx(1.0)

    def test_symmetric(self):
        taps = gaussian_filter_taps(0.5, 8)
        assert np.allclose(taps, taps[::-1])

    def test_narrower_bt_means_wider_pulse(self):
        wide = gaussian_filter_taps(0.3, 8, span_symbols=5)
        narrow = gaussian_filter_taps(1.0, 8, span_symbols=5)
        # Lower BT spreads energy further from the centre tap.
        assert wide.max() < narrow.max()

    def test_invalid_bt(self):
        with pytest.raises(ValueError):
            gaussian_filter_taps(0.0, 8)

    def test_invalid_sps(self):
        with pytest.raises(ValueError):
            gaussian_filter_taps(0.5, 0)

    def test_invalid_span(self):
        with pytest.raises(ValueError):
            gaussian_filter_taps(0.5, 8, span_symbols=0)

    @pytest.mark.parametrize(("samples_per_symbol", "span_symbols"), [(8, 3), (4, 4), (16, 2)])
    def test_tap_count(self, samples_per_symbol, span_symbols):
        taps = gaussian_filter_taps(0.5, samples_per_symbol, span_symbols=span_symbols)
        assert taps.size == span_symbols * samples_per_symbol + 1

    def test_positive_with_peak_at_centre(self):
        taps = gaussian_filter_taps(0.5, 8)
        assert np.all(taps > 0)
        assert int(np.argmax(taps)) == taps.size // 2

    def test_ble_pulse_stays_within_one_symbol(self):
        # BT = 0.5 gives sigma ~ 0.27 symbols: all but ~0.01 % of the pulse
        # lies within one symbol period of its centre, so GFSK ISI is mild.
        taps = gaussian_filter_taps(0.5, 8, span_symbols=4)
        centre = taps.size // 2
        assert np.sum(taps[centre - 8 : centre + 9]) > 0.9999
