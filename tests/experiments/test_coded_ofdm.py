"""Tests for the coded-OFDM hard-vs-soft sweep experiment."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.registry import get_experiment
from repro.experiments.coded_ofdm import _crossing_snr_db, run, summarize
from repro.exceptions import ConfigurationError
from repro.mc import CodedOfdmPipeline
from repro.wifi.ofdm.rates import OfdmRate


class TestSoftGainAcceptance:
    def test_soft_gain_at_least_1p5_db_at_per_1e2(self):
        """The PR's headline claim: soft-decision Viterbi buys >= 1.5 dB at PER 1e-2.

        Coding theory puts the asymptotic soft-vs-hard gap near 2 dB for the
        K=7 802.11 code; we assert a conservative floor with margin for the
        reduced trial budget.
        """
        result = run(snr_start_db=3.0, snr_stop_db=9.0, snr_step_db=1.0, trials=600, seed=2016)
        assert not np.isnan(result.soft_gain_db)
        assert result.soft_gain_db >= 1.5
        # Paired realisations: soft never does worse anywhere on the grid.
        assert np.all(result.soft_error_rate <= result.hard_error_rate)

    def test_scalar_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="engine not supported"):
            run(engine="scalar")

    def test_invalid_snr_grid_rejected(self):
        with pytest.raises(ConfigurationError, match="snr_stop_db"):
            run(snr_stop_db=-1.0)
        with pytest.raises(ConfigurationError, match="snr_step_db"):
            run(snr_step_db=0.0)


#: A two-point grid at four codewords: a run that is wrongly accepted ends fast.
SMALL = {"snr_start_db": 0.0, "snr_stop_db": 2.0, "snr_step_db": 2.0, "trials": 4}


class TestInputValidation:
    @pytest.mark.parametrize(
        ("knob", "value"),
        [
            ("trials", 2.5),
            ("trials", "3"),
            ("trials", True),
            ("num_symbols", 1.5),
            ("snr_start_db", float("nan")),
            ("snr_start_db", float("-inf")),
            ("snr_stop_db", float("nan")),
            ("snr_stop_db", float("inf")),
            ("snr_step_db", float("nan")),
            ("snr_step_db", float("inf")),
            ("seed", -1),
            ("seed", 1.5),
            ("target_error_rate", 0.0),
            ("target_error_rate", 1.0),
            ("target_error_rate", 1.5),
            ("target_error_rate", float("nan")),
        ],
    )
    def test_bad_knob_raises_configuration_error_naming_it(self, knob, value):
        with pytest.raises(ConfigurationError, match=knob):
            run(**{**SMALL, knob: value})

    @pytest.mark.parametrize("value", ["x", "12", float("nan"), float("inf"), 0.0, -12.0, True])
    @pytest.mark.parametrize(
        "entry",
        [lambda rate: run(**{**SMALL, "rate_mbps": rate}), CodedOfdmPipeline],
        ids=["run", "pipeline"],
    )
    def test_rate_that_is_not_a_finite_positive_number_is_rejected(self, entry, value):
        # A string used to reach float(): "x" raised a bare ValueError and
        # "12" ran at 12 Mbps.
        with pytest.raises(ConfigurationError, match="rate_mbps must be a finite positive number"):
            entry(value)

    def test_rate_given_as_a_number(self):
        assert run(**{**SMALL, "rate_mbps": 12}).rate_mbps == 12.0
        assert CodedOfdmPipeline(np.float64(24.0)).rate is OfdmRate.RATE_24
        with pytest.raises(ConfigurationError, match="unsupported OFDM rate"):
            CodedOfdmPipeline(13.0)


#: Exact error-rate arrays of ``run`` recorded before the butterfly decoder
#: replaced the gather-based one; any change to a decision shows here.
PINS = {
    "fast-12mbps-rate-1/2": (
        # The registry's fast params: no erasures.
        {"snr_step_db": 2.0, "snr_stop_db": 8.0, "trials": 400},
        [1.0, 0.885, 0.3, 0.0375, 0.0],
        [0.915, 0.2125, 0.0375, 0.005, 0.0],
    ),
    "48mbps-rate-2/3": (
        dict(rate_mbps=48.0, snr_start_db=12.0, snr_stop_db=20.0, snr_step_db=2.0, trials=40, statistic="ber"),
        [0.4072591145833334, 0.2387369791666667, 0.05638020833333333, 0.0027669270833333335, 0.0001953125],
        [0.21744791666666666, 0.023470052083333335, 0.00078125, 0.00016276041666666666, 3.255208333333333e-05],
    ),
    "54mbps-rate-3/4": (
        dict(rate_mbps=54.0, snr_start_db=14.0, snr_stop_db=22.0, snr_step_db=2.0, trials=40, statistic="ber"),
        [0.37080439814814814, 0.18269675925925927, 0.024594907407407406, 0.001244212962962963, 0.0],
        [0.1580439814814815, 0.013512731481481483, 0.0004340277777777778, 2.8935185185185183e-05, 0.0],
    ),
}


class TestPinnedOutput:
    @pytest.mark.parametrize("params,hard,soft", list(PINS.values()), ids=list(PINS))
    def test_error_rates_are_pinned(self, params, hard, soft):
        # The punctured rates send depunctured erasures through both
        # decisions; the fast params decode every coded bit.
        result = run(**params)
        assert result.hard_error_rate.tolist() == hard
        assert result.soft_error_rate.tolist() == soft

    def test_fast_pin_uses_the_registry_fast_params(self):
        assert get_experiment("coded_ofdm").fast_params == PINS["fast-12mbps-rate-1/2"][0]


class TestCrossingInterpolation:
    def test_interpolates_between_bracketing_points(self):
        snr = np.array([0.0, 1.0, 2.0])
        rates = np.array([1.0, 0.1, 0.001])
        crossing = _crossing_snr_db(snr, rates, 0.01, floor=1e-6)
        assert 1.0 < crossing < 2.0

    def test_nan_when_never_crossed(self):
        snr = np.array([0.0, 1.0])
        rates = np.array([0.9, 0.5])
        assert np.isnan(_crossing_snr_db(snr, rates, 0.01, floor=1e-6))

    def test_first_point_already_below_target(self):
        snr = np.array([3.0, 4.0])
        rates = np.array([0.001, 0.0001])
        assert _crossing_snr_db(snr, rates, 0.01, floor=1e-6) == 3.0

    def test_zero_rates_floored_not_infinite(self):
        snr = np.array([0.0, 1.0, 2.0])
        rates = np.array([0.5, 0.02, 0.0])
        crossing = _crossing_snr_db(snr, rates, 0.01, floor=1e-3)
        assert np.isfinite(crossing)


class TestSummary:
    def test_summary_reports_gain(self):
        result = run(snr_start_db=3.0, snr_stop_db=9.0, snr_step_db=1.5, trials=300, seed=2016)
        lines = summarize(result)
        assert any("soft-decision gain" in line for line in lines)
        assert any("theory" in line for line in lines)

    def test_summary_handles_never_crossed(self):
        # A grid stopping well before the waterfall never reaches PER 1e-2.
        result = run(snr_start_db=0.0, snr_stop_db=2.0, snr_step_db=1.0, trials=100, seed=2016)
        assert np.isnan(result.soft_gain_db) or result.soft_gain_db == result.soft_gain_db
        lines = summarize(result)
        assert lines
