"""Tests for the batched Monte-Carlo sweep driver and its pipelines."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.channel.error_models import wifi_packet_error_rate
from repro.mc import CodedOfdmPipeline, run_sweep
from repro.obs.metrics import collect
from repro.wifi.ofdm.rates import OfdmRate


@dataclass(frozen=True)
class AnalyticWifiPerPipeline:
    """A cheap pipeline for the driver tests: packet-failure draws from the analytic 802.11b PER."""

    rate_mbps: float
    payload_bytes: int

    def run_batch(self, snr_db: float, trials: int, rng: np.random.Generator) -> np.ndarray:
        per = wifi_packet_error_rate(snr_db, rate_mbps=self.rate_mbps, payload_bytes=self.payload_bytes)
        return (rng.random(trials) < per).astype(float)


class TestRunSweep:
    def test_deterministic_in_seed(self):
        pipeline = AnalyticWifiPerPipeline(rate_mbps=2.0, payload_bytes=31)
        points = np.array([-6.0, -2.0, 2.0])
        first = run_sweep(points, 500, pipeline, seed=42)
        second = run_sweep(points, 500, pipeline, seed=42)
        assert np.array_equal(first.error_rate, second.error_rate)
        assert np.array_equal(first.snr_db, points)
        assert first.trials == 500

    def test_chunking_preserves_results(self):
        pipeline = AnalyticWifiPerPipeline(rate_mbps=2.0, payload_bytes=31)
        points = np.array([-4.0, 0.0])
        whole = run_sweep(points, 400, pipeline, seed=7)
        chunked = run_sweep(points, 400, pipeline, seed=7, max_batch=64)
        # Same RNG, same total draws, same per-point statistics.
        assert np.allclose(whole.error_rate, chunked.error_rate)

    def test_matches_analytic_per_within_noise(self):
        pipeline = AnalyticWifiPerPipeline(rate_mbps=2.0, payload_bytes=31)
        points = np.array([-8.0, -5.0, -3.0])
        sweep = run_sweep(points, 4000, pipeline, seed=3)
        exact = np.asarray(
            wifi_packet_error_rate(points, rate_mbps=2.0, payload_bytes=31)
        )
        assert np.all(np.abs(sweep.error_rate - exact) < 4.0 * sweep.std_error + 1e-3)

    def test_error_rate_monotone_in_snr(self):
        sweep = run_sweep(
            np.linspace(-10.0, 2.0, 7),
            2000,
            AnalyticWifiPerPipeline(rate_mbps=11.0, payload_bytes=77),
            seed=5,
        )
        assert np.all(np.diff(sweep.error_rate) <= 0.05)

    def test_rejects_bad_trials(self):
        with pytest.raises(ConfigurationError):
            run_sweep(np.array([0.0]), 0, AnalyticWifiPerPipeline(2.0, 31))

    @pytest.mark.parametrize("trials", [2.5, "3", True])
    def test_rejects_non_integer_trials(self, trials):
        with pytest.raises(ConfigurationError, match="trials must be an integer"):
            run_sweep(np.array([0.0]), trials, AnalyticWifiPerPipeline(2.0, 31))

    @pytest.mark.parametrize(
        ("max_batch", "message"),
        [(0, "at least 1"), (-4, "at least 1"), (2.5, "an integer"), (True, "an integer")],
    )
    def test_rejects_max_batch_that_is_not_a_positive_integer(self, max_batch, message):
        with pytest.raises(ConfigurationError, match=f"max_batch must be {message}"):
            run_sweep(np.array([0.0]), 10, AnalyticWifiPerPipeline(2.0, 31), max_batch=max_batch)

    def test_scalar_operating_point_accepted(self):
        sweep = run_sweep(3.0, 10, AnalyticWifiPerPipeline(2.0, 31), seed=1)
        assert sweep.snr_db.tolist() == [3.0]
        assert sweep.error_rate.shape == sweep.std_error.shape == (1,)

    def test_explicit_generator_matches_seed(self):
        pipeline = AnalyticWifiPerPipeline(rate_mbps=2.0, payload_bytes=31)
        points = np.array([-5.0, -3.0])
        seeded = run_sweep(points, 300, pipeline, seed=11)
        explicit = run_sweep(points, 300, pipeline, rng=np.random.default_rng(11), seed=99)
        assert np.array_equal(seeded.error_rate, explicit.error_rate)

    def test_certain_outcomes_have_zero_standard_error(self):
        sweep = run_sweep(np.array([-30.0, 30.0]), 200, AnalyticWifiPerPipeline(2.0, 31), seed=2)
        assert sweep.error_rate.tolist() == [1.0, 0.0]
        assert sweep.std_error.tolist() == [0.0, 0.0]

    def test_batches_are_counted_per_point(self):
        with collect() as collector:
            run_sweep(np.array([0.0, 1.0, 2.0]), 100, AnalyticWifiPerPipeline(2.0, 31), max_batch=40)
        # ceil(100 / 40) = 3 batches at each of 3 points.
        assert collector.counters["mc.sweep.batches"] == 9
        assert collector.counters["mc.sweep.trials"] == 300

    def test_analytic_pipeline_draws_failure_indicators(self):
        outcome = AnalyticWifiPerPipeline(2.0, 31).run_batch(-4.0, 500, np.random.default_rng(0))
        assert outcome.shape == (500,)
        assert set(np.unique(outcome)) <= {0.0, 1.0}


class TestCodedOfdmPipeline:
    def test_per_cliff_with_snr(self):
        """The full batched chain decodes cleanly at high SNR, fails at low."""
        pipeline = CodedOfdmPipeline(OfdmRate.RATE_12, num_symbols=2)
        sweep = run_sweep(np.array([-4.0, 20.0]), 60, pipeline, seed=13)
        assert sweep.error_rate[0] > 0.5
        assert sweep.error_rate[-1] == 0.0

    def test_ber_statistic_below_per(self):
        per_pipe = CodedOfdmPipeline(OfdmRate.RATE_12, num_symbols=2, statistic="per")
        ber_pipe = CodedOfdmPipeline(OfdmRate.RATE_12, num_symbols=2, statistic="ber")
        per = per_pipe.run_batch(4.0, 50, np.random.default_rng(1))
        ber = ber_pipe.run_batch(4.0, 50, np.random.default_rng(1))
        assert np.all(ber <= per + 1e-12)

    def test_rate_parameter_coercion_and_validation(self):
        assert CodedOfdmPipeline(36.0).rate is OfdmRate.RATE_36
        with pytest.raises(ConfigurationError):
            CodedOfdmPipeline(OfdmRate.RATE_12, statistic="nope")
        with pytest.raises(ConfigurationError):
            CodedOfdmPipeline(OfdmRate.RATE_12, num_symbols=0)
        with pytest.raises(ConfigurationError):
            CodedOfdmPipeline(OfdmRate.RATE_12, decision="nope")

    @pytest.mark.parametrize("num_symbols", [1.5, "2", True])
    def test_num_symbols_must_be_an_integer(self, num_symbols):
        with pytest.raises(ConfigurationError, match="num_symbols must be an integer"):
            CodedOfdmPipeline(OfdmRate.RATE_12, num_symbols=num_symbols)

    def test_ber_statistic_is_a_bit_fraction(self):
        pipeline = CodedOfdmPipeline(OfdmRate.RATE_12, num_symbols=2, statistic="ber")
        ber = pipeline.run_batch(2.0, 40, np.random.default_rng(4))
        data_bits = OfdmRate.RATE_12.parameters.data_bits_per_symbol * 2
        assert ber.shape == (40,)
        assert np.all((ber >= 0.0) & (ber <= 1.0))
        assert np.allclose(ber * data_bits, np.round(ber * data_bits))
