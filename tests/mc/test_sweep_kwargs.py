"""Tests for run_sweep's keyword-only signature (the positional shim is gone)."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.mc.sweep import run_sweep
from tests.mc.test_sweep import AnalyticWifiPerPipeline

POINTS = np.array([4.0, 8.0])


def _pipeline() -> AnalyticWifiPerPipeline:
    return AnalyticWifiPerPipeline(rate_mbps=2.0, payload_bytes=1000)


class TestKeywordOnly:
    def test_keyword_call_emits_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_sweep(POINTS, 32, _pipeline(), seed=5, max_batch=16)

    def test_rng_keyword_matches_seed_construction(self):
        by_rng = run_sweep(POINTS, 32, _pipeline(), rng=np.random.default_rng(5))
        by_seed = run_sweep(POINTS, 32, _pipeline(), seed=5)
        np.testing.assert_array_equal(by_rng.error_rate, by_seed.error_rate)

    def test_positional_rng_is_rejected(self):
        with pytest.raises(TypeError, match="positional"):
            run_sweep(POINTS, 32, _pipeline(), np.random.default_rng(5))

    def test_positional_seed_and_max_batch_are_rejected(self):
        with pytest.raises(TypeError, match="positional"):
            run_sweep(POINTS, 32, _pipeline(), None, 9, 8)
